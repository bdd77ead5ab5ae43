package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"hydra/internal/graph"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// TestOddWorldsTrainOrRefuse runs worlds that decode but are odd through
// Load → Systemize → Block → Fit. Each must refuse with an error or train
// a model; none may panic.
func TestOddWorldsTrainOrRefuse(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(ds *platform.Dataset)
		wantErr string // "" = a model is trained
	}{
		{"no-posts", func(ds *platform.Dataset) {
			forEachAccount(ds, func(acc *platform.Account) { acc.Posts = nil })
		}, "no posts to train LDA on"},
		{"one-platform", func(ds *platform.Dataset) {
			delete(ds.Platforms, platform.Twitter)
		}, "no platform twitter in dataset"},
		{"no-edges", func(ds *platform.Dataset) {
			for _, p := range ds.Platforms {
				p.Graph = graph.New(len(p.Accounts))
			}
		}, ""},
		{"one-instant", func(ds *platform.Dataset) {
			forEachAccount(ds, func(acc *platform.Account) {
				for i := range acc.Posts {
					acc.Posts[i].Time = ds.Span.Start
				}
				for i := range acc.Events {
					acc.Events[i].Time = ds.Span.Start
				}
			})
		}, ""},
		{"one-username", func(ds *platform.Dataset) {
			forEachAccount(ds, func(acc *platform.Account) { acc.Profile.Username = "same" })
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := synth.Generate(synth.DefaultConfig(20, platform.EnglishPlatforms, 1))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(w.Dataset)
			var buf bytes.Buffer
			if err := platform.Encode(&buf, w.Dataset); err != nil {
				t.Fatal(err)
			}
			ds, err := platform.Decode(&buf)
			if err != nil {
				t.Fatalf("odd world does not decode: %v", err)
			}
			fitted, err := fitDataset(ds, 1, 1)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want a model, got %v", err)
			case tc.wantErr == "" && fitted.Linker.Model() == nil:
				t.Fatal("Fit returned no model")
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

func forEachAccount(ds *platform.Dataset, fn func(*platform.Account)) {
	for _, p := range ds.Platforms {
		for _, acc := range p.Accounts {
			fn(acc)
		}
	}
}
