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
