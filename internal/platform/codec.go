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

// renderAccount flattens one account into its wire form — shared by
// Encode and StreamEncoder so the two serialization paths cannot drift.
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

// forEachWireEdge visits a platform graph's edges in the canonical wire
// order (ascending u, then adjacency order, u < v once per edge) —
// shared by Encode and StreamEncoder.
func forEachWireEdge(g *graph.Graph, fn func(wireEdge) error) error {
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if err := fn(wireEdge{U: u, V: v, W: g.Weight(u, v)}); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
		forEachWireEdge(p.Graph, func(e wireEdge) error {
			wp.Edges = append(wp.Edges, e)
			return nil
		})
		wd.Platforms = append(wd.Platforms, wp)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wd)
}

// Decode reads a dataset previously written by Encode. A world file is
// input: an edge whose endpoint is not one of its platform's accounts,
// or whose weight is negative, is refused with an error naming the
// platform and the edge's index.
func Decode(r io.Reader) (*Dataset, error) {
	var wd wireDataset
	if err := json.NewDecoder(r).Decode(&wd); err != nil {
		return nil, fmt.Errorf("platform: decode dataset: %w", err)
	}
	d := NewDataset(temporal.Range{Start: wd.SpanStart, End: wd.SpanEnd})
	for _, wp := range wd.Platforms {
		p := &Platform{ID: wp.ID, Graph: graph.New(len(wp.Accounts))}
		for i, wa := range wp.Accounts {
			if wa.Local != i {
				return nil, fmt.Errorf("platform: account %d of %s has local id %d", i, wp.ID, wa.Local)
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
