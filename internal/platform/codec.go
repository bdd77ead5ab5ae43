package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"hydra/internal/graph"
	"hydra/internal/temporal"
)

// The wire types below flatten Dataset into plain JSON for cmd/hydra-gen.

type wireEdge struct {
	U, V int
	W    float64
}

type wireEvent struct {
	Time    time.Time `json:"time"`
	Lat     float64   `json:"lat,omitempty"`
	Lon     float64   `json:"lon,omitempty"`
	MediaID uint64    `json:"media_id,omitempty"`
}

type wirePost struct {
	Time time.Time `json:"time"`
	Text string    `json:"text"`
}

type wireAccount struct {
	Local    int                 `json:"local"`
	Person   int                 `json:"person"`
	Username string              `json:"username"`
	Attrs    map[AttrName]string `json:"attrs,omitempty"`
	AvatarID uint64              `json:"avatar_id,omitempty"`
	Posts    []wirePost          `json:"posts,omitempty"`
	Events   []wireEvent         `json:"events,omitempty"`
}

type wirePlatform struct {
	ID       ID            `json:"id"`
	Accounts []wireAccount `json:"accounts"`
	Edges    []wireEdge    `json:"edges"`
}

type wireDataset struct {
	SpanStart time.Time      `json:"span_start"`
	SpanEnd   time.Time      `json:"span_end"`
	Platforms []wirePlatform `json:"platforms"`
}

// renderAccount flattens one account into its wire form.
func renderAccount(acc *Account) wireAccount {
	wa := wireAccount{
		Local:    acc.Local,
		Person:   acc.Person,
		Username: acc.Profile.Username,
		Attrs:    acc.Profile.Attrs,
		AvatarID: acc.Profile.AvatarID,
	}
	for _, post := range acc.Posts {
		wa.Posts = append(wa.Posts, wirePost{Time: post.Time, Text: post.Text})
	}
	for _, ev := range acc.Events {
		wa.Events = append(wa.Events, wireEvent{Time: ev.Time, Lat: ev.Lat, Lon: ev.Lon, MediaID: ev.MediaID})
	}
	return wa
}

// Encode writes the dataset as JSON to w.
func Encode(w io.Writer, d *Dataset) error {
	wd := wireDataset{SpanStart: d.Span.Start, SpanEnd: d.Span.End}
	ids := make([]ID, 0, len(d.Platforms))
	for id := range d.Platforms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := d.Platforms[id]
		wp := wirePlatform{ID: p.ID}
		for _, acc := range p.Accounts {
			wp.Accounts = append(wp.Accounts, renderAccount(acc))
		}
		// Edges in ascending u, then adjacency order, once each (u < v).
		for u := 0; u < p.Graph.Len(); u++ {
			for _, v := range p.Graph.Neighbors(u) {
				if u < v {
					wp.Edges = append(wp.Edges, wireEdge{U: u, V: v, W: p.Graph.Weight(u, v)})
				}
			}
		}
		wd.Platforms = append(wd.Platforms, wp)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wd)
}

// Decode reads a dataset previously written by Encode. A world file is
// input, and Decode refuses what no generator writes: a span that does not
// end after it starts; an account whose person already has an account on
// its platform; an event whose latitude or longitude is off the globe; an
// edge whose endpoint is not one of its platform's accounts, or whose
// weight is negative. Each error names the platform and the index.
func Decode(r io.Reader) (*Dataset, error) {
	var wd wireDataset
	if err := json.NewDecoder(r).Decode(&wd); err != nil {
		return nil, fmt.Errorf("platform: decode dataset: %w", err)
	}
	span := temporal.Range{Start: wd.SpanStart, End: wd.SpanEnd}
	if !span.Valid() {
		return nil, fmt.Errorf("platform: span_end %s is not after span_start %s",
			wd.SpanEnd.Format(time.RFC3339), wd.SpanStart.Format(time.RFC3339))
	}
	d := NewDataset(span)
	for _, wp := range wd.Platforms {
		p := &Platform{ID: wp.ID, Graph: graph.New(len(wp.Accounts))}
		owner := make(map[int]int, len(wp.Accounts)) // person -> account index
		for i, wa := range wp.Accounts {
			if wa.Local != i {
				return nil, fmt.Errorf("platform: account %d of %s has local id %d", i, wp.ID, wa.Local)
			}
			if j, dup := owner[wa.Person]; dup {
				return nil, fmt.Errorf("platform: accounts %d and %d of %s both belong to person %d", j, i, wp.ID, wa.Person)
			}
			owner[wa.Person] = i
			for k, ev := range wa.Events {
				if ev.Lat < -90 || ev.Lat > 90 || ev.Lon < -180 || ev.Lon > 180 {
					return nil, fmt.Errorf("platform: event %d of account %d of %s is at (%v, %v), off the globe", k, i, wp.ID, ev.Lat, ev.Lon)
				}
			}
			acc := &Account{
				Platform: wp.ID,
				Local:    wa.Local,
				Person:   wa.Person,
				Profile:  Profile{Username: wa.Username, Attrs: wa.Attrs, AvatarID: wa.AvatarID},
			}
			if acc.Profile.Attrs == nil {
				acc.Profile.Attrs = make(map[AttrName]string)
			}
			for _, post := range wa.Posts {
				acc.Posts = append(acc.Posts, Post{Time: post.Time, Text: post.Text})
			}
			for _, ev := range wa.Events {
				acc.Events = append(acc.Events, temporal.Event{Time: ev.Time, Lat: ev.Lat, Lon: ev.Lon, MediaID: ev.MediaID})
			}
			p.Accounts = append(p.Accounts, acc)
		}
		for j, e := range wp.Edges {
			if n := len(wp.Accounts); e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				return nil, fmt.Errorf("platform: edge %d of %s joins accounts %d and %d, outside [0,%d)", j, wp.ID, e.U, e.V, n)
			}
			if e.W < 0 {
				return nil, fmt.Errorf("platform: edge %d of %s has negative weight %v", j, wp.ID, e.W)
			}
			p.Graph.AddEdge(e.U, e.V, e.W)
		}
		if err := d.AddPlatform(p); err != nil {
			return nil, err
		}
	}
	return d, nil
}
