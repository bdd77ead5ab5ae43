package main

import (
	"testing"

	"hydra/internal/core"
)

func TestResolveVariant(t *testing.T) {
	for name, want := range map[string]core.Variant{"m": core.HydraM, "z": core.HydraZ} {
		if got, err := resolveVariant(name); err != nil || got != want {
			t.Fatalf("resolveVariant(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "q", "M", "zero"} {
		if _, err := resolveVariant(name); err == nil {
			t.Fatalf("resolveVariant(%q) accepted", name)
		}
	}
}

func TestResolveDataset(t *testing.T) {
	for name, pairs := range map[string]int{"english": 1, "chinese": 2, "all": 2} {
		if plats, got, err := resolveDataset(name); err != nil || len(got) != pairs || len(plats) < 2 {
			t.Fatalf("resolveDataset(%q) = %d platforms, %d pairs, %v", name, len(plats), len(got), err)
		}
	}
	if _, _, err := resolveDataset("klingon"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
