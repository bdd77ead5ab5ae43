package platform

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"hydra/internal/graph"
	"hydra/internal/temporal"
)

func span() temporal.Range {
	start := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	return temporal.Range{Start: start, End: start.AddDate(1, 0, 0)}
}

func miniDataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset(span())
	for _, pid := range []ID{Twitter, Facebook} {
		p := &Platform{ID: pid, Graph: graph.New(3)}
		for local := 0; local < 3; local++ {
			person := local
			if pid == Facebook {
				person = 2 - local // shuffled mapping
			}
			p.Accounts = append(p.Accounts, &Account{
				Platform: pid,
				Local:    local,
				Person:   person,
				Profile: Profile{
					Username: "user",
					Attrs:    map[AttrName]string{AttrGender: "f"},
				},
			})
		}
		p.Graph.AddEdge(0, 1, 2.5)
		if err := d.AddPlatform(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestLangOf(t *testing.T) {
	if LangOf(Twitter) != English || LangOf(SinaWeibo) != Chinese {
		t.Fatal("LangOf wrong")
	}
}

func TestProfileMissing(t *testing.T) {
	p := Profile{Attrs: map[AttrName]string{
		AttrGender: "m", AttrBirth: "1985", AttrBio: "",
	}}
	if v, ok := p.Attr(AttrGender); !ok || v != "m" {
		t.Fatal("Attr present failed")
	}
	if _, ok := p.Attr(AttrBio); ok {
		t.Fatal("empty string should count as missing")
	}
	if _, ok := p.Attr(AttrJob); ok {
		t.Fatal("absent key should count as missing")
	}
	// Six core attrs; gender and birth present -> 4 missing.
	ms := p.MissingSet()
	if len(ms) != 4 {
		t.Fatalf("MissingSet = %v", ms)
	}
}

func TestDatasetGroundTruth(t *testing.T) {
	d := miniDataset(t)
	if d.NumPersons() != 3 {
		t.Fatalf("NumPersons = %d", d.NumPersons())
	}
	// Twitter local 0 is person 0; Facebook local 2 is person 0.
	if !d.SamePerson(Twitter, 0, Facebook, 2) {
		t.Fatal("SamePerson should hold")
	}
	if d.SamePerson(Twitter, 0, Facebook, 0) {
		t.Fatal("SamePerson should not hold")
	}
	if local, ok := d.AccountOf(0, Facebook); !ok || local != 2 {
		t.Fatalf("AccountOf = %d,%v", local, ok)
	}
	if _, ok := d.AccountOf(99, Facebook); ok {
		t.Fatal("unknown person should have no account")
	}
}

func TestDatasetDuplicatePlatform(t *testing.T) {
	d := miniDataset(t)
	if err := d.AddPlatform(&Platform{ID: Twitter, Graph: graph.New(0)}); err == nil {
		t.Fatal("expected duplicate-platform error")
	}
}

func TestDatasetPlatformLookup(t *testing.T) {
	d := miniDataset(t)
	if _, err := d.Platform(Twitter); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Platform(Renren); err == nil {
		t.Fatal("expected missing-platform error")
	}
}

func TestAccountOutOfRangePanics(t *testing.T) {
	d := miniDataset(t)
	p, _ := d.Platform(Twitter)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Account(99)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := miniDataset(t)
	// Add some content to exercise every wire field.
	acc := d.Platforms[Twitter].Accounts[0]
	acc.Posts = append(acc.Posts, Post{Time: span().Start.Add(time.Hour), Text: "hello world"})
	acc.Events = append(acc.Events, temporal.Event{Time: span().Start, Lat: 1, Lon: 2, MediaID: 7})
	acc.Profile.AvatarID = 42

	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPersons() != 3 {
		t.Fatalf("round-trip NumPersons = %d", got.NumPersons())
	}
	if !got.Span.Start.Equal(d.Span.Start) || !got.Span.End.Equal(d.Span.End) {
		t.Fatal("span not preserved")
	}
	gacc := got.Platforms[Twitter].Accounts[0]
	if gacc.Profile.AvatarID != 42 || len(gacc.Posts) != 1 || gacc.Posts[0].Text != "hello world" {
		t.Fatalf("account content not preserved: %+v", gacc)
	}
	if len(gacc.Events) != 1 || gacc.Events[0].MediaID != 7 {
		t.Fatal("events not preserved")
	}
	if got.Platforms[Twitter].Graph.Weight(0, 1) != 2.5 {
		t.Fatal("graph not preserved")
	}
	if !got.SamePerson(Twitter, 0, Facebook, 2) {
		t.Fatal("ground truth not preserved")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSetNamed(t *testing.T) {
	want := []struct {
		name  string
		pairs int
	}{{"english", 1}, {"chinese", 2}, {"all", 2}}
	if len(Sets) != len(want) {
		t.Fatalf("%d datasets, want %d", len(Sets), len(want))
	}
	for i, w := range want {
		// The figures index Sets by position, so the order is pinned too.
		if Sets[i].Name != w.name {
			t.Fatalf("Sets[%d] = %q, want %q", i, Sets[i].Name, w.name)
		}
		s, err := SetNamed(w.name)
		if err != nil || s.Name != w.name || len(s.Pairs) != w.pairs || len(s.Platforms) < 2 {
			t.Fatalf("SetNamed(%q) = %+v, %v; want %d pairs", w.name, s, err, w.pairs)
		}
		for _, pair := range s.Pairs {
			for _, id := range pair {
				if !slices.Contains(s.Platforms, id) {
					t.Fatalf("%s pairs %s, which is not one of its platforms", w.name, id)
				}
			}
		}
	}
	if _, err := SetNamed("klingon"); err == nil || !strings.Contains(err.Error(), "want english, chinese or all") {
		t.Fatalf("unknown dataset: err = %v", err)
	}
}
