package pipeline

import (
	"bytes"
	"testing"

	"hydra/internal/platform"
)

// TestTiledBundleShape checks the load-shape generator: every platform
// scaled to n views with header-bloating fields stripped, friends
// confined to their community block, candidate rows jittered around
// candsPerA with in-range B ids — and the result survives the v3 codec.
func TestTiledBundleShape(t *testing.T) {
	base := fixtureBundle()
	const n, cands = 600, 8
	tb, err := TiledBundle(base, n, cands, 11)
	if err != nil {
		t.Fatal(err)
	}
	for pid, views := range tb.Views {
		if len(views) != n {
			t.Fatalf("%s: %d views, want %d", pid, len(views), n)
		}
		for i, v := range views {
			if v.Attrs != nil || v.Unique != nil {
				t.Fatalf("%s[%d]: header-bloating fields survived tiling", pid, i)
			}
			if v.Username == "" {
				t.Fatalf("%s[%d]: username lost", pid, i)
			}
		}
		fr := tb.Friends[pid]
		if len(fr) != n {
			t.Fatalf("%s: %d friend slices, want %d", pid, len(fr), n)
		}
		for i, fs := range fr {
			block := (i / 512) * 512
			hi := min(block+512, n)
			for _, f := range fs {
				if f.ID < block || f.ID >= hi || f.ID == i {
					t.Fatalf("%s[%d]: friend %d escapes community [%d,%d)", pid, i, f.ID, block, hi)
				}
			}
		}
	}
	for _, ix := range tb.Indexes {
		if len(ix.ByA) != n {
			t.Fatalf("index %s→%s: %d rows, want %d", ix.PA, ix.PB, len(ix.ByA), n)
		}
		total := 0
		for a, row := range ix.ByA {
			if len(row) < cands/2 || len(row) > cands/2+cands {
				t.Fatalf("row %d: %d candidates, want within [%d,%d]", a, len(row), cands/2, cands/2+cands)
			}
			total += len(row)
			seen := make(map[int]bool, len(row))
			for _, c := range row {
				if c.A != a || c.B < 0 || c.B >= n || seen[c.B] {
					t.Fatalf("row %d: bad candidate %+v", a, c)
				}
				seen[c.B] = true
			}
		}
		if mean := float64(total) / float64(n); mean < float64(cands)*0.8 || mean > float64(cands)*1.2 {
			t.Fatalf("mean fan-out %.1f strays from target %d", mean, cands)
		}
	}

	// Round-trip through the wire format, then open it mapped.
	var buf bytes.Buffer
	if err := WriteBundle(&buf, tb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Views[platform.Twitter]) != n || back.WorldPersons != n {
		t.Fatalf("tiled bundle lost shape over the wire")
	}
}

// TestTiledBundleRefusals pins the guard rails.
func TestTiledBundleRefusals(t *testing.T) {
	base := fixtureBundle()
	if _, err := TiledBundle(base, 0, 8, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := TiledBundle(base, 10, 0, 1); err == nil {
		t.Fatal("candsPerA=0 accepted")
	}
	sharded := fixtureBundle()
	sharded.Shard = &ShardDesc{Count: 2, Index: 0, Seed: 1, Generation: 1}
	if _, err := TiledBundle(sharded, 10, 4, 1); err == nil {
		t.Fatal("sharded base accepted")
	}
}
