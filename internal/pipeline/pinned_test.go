package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// pinnedBundleSHA256 was recorded on the parent of the PR that moved the
// per-account work out of features.Pair, before any product file was
// edited.
const pinnedBundleSHA256 = "47b9e8f95efa8e60f99029b115a2ea2434a3099a39b8fc102dffa4cacfd2d4a6"

// TestPinnedBundleHash pins "the model did not change" across commits:
// Systemize → Block → Fit → BundleFromArtifact (64-wide index, prescreen
// and impute table on) → WriteBundle over a fixed 20-person world must
// hash to a constant. Every pair vector, the trained model, the
// certified prescreen margin and every Eqn-18 table sum feed the bytes,
// so a last-bit drift anywhere in the feature layer fails here even
// though every same-build identity test would still pass. The fit runs
// at workers 0 and 4 and each pack at workers 0, 1 and 4: neither the
// training host's worker count nor any pass on the pool may reach the
// bytes. After an intentional model or format change, re-record the
// constant.
func TestPinnedBundleHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the constant was recorded on amd64; other targets may fuse multiply-adds")
	}
	const seed = 1
	worldPath := writeWorld(t, 20, seed)
	for _, fitWorkers := range []int{0, 4} {
		fitted := fitWorld(t, worldPath, seed, fitWorkers)
		art, err := fitted.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		art.Rules.TopK = 64
		for _, workers := range []int{0, 1, 4} {
			b, err := BundleFromArtifact(art, fitted.DS, workers)
			if err != nil {
				t.Fatal(err)
			}
			if b.Prescreen == nil || b.ImputeTable == nil {
				t.Fatalf("pinned bundle must carry prescreen (%v) and impute table (%v)", b.Prescreen != nil, b.ImputeTable != nil)
			}
			h := sha256.New()
			if err := WriteBundle(h, b); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinnedBundleSHA256 {
				t.Fatalf("fit workers=%d, pack workers=%d: bundle hash %s, pinned %s", fitWorkers, workers, got, pinnedBundleSHA256)
			}
		}
	}
}

// TestDamagedFeatureConfigRefused: one damaged field of the bundle's
// feature config used to open fine and serve every dimension it broke as
// unobserved — confident, different scores. Both readers' stores must
// refuse the bundle instead.
func TestDamagedFeatureConfigRefused(t *testing.T) {
	b := fixtureBundle()
	b.Pipeline.Cfg.MR.Q = 0
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decoded.Store(); err == nil || !strings.Contains(err.Error(), "q >= 1") {
		t.Fatalf("decoded bundle with MR.Q = 0: Store() = %v, want the pooling exponent refused", err)
	}
	path := filepath.Join(t.TempDir(), "damaged.bin")
	if err := SaveBundle(path, b); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenBundleMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if _, err := mb.Store(); err == nil || !strings.Contains(err.Error(), "q >= 1") {
		t.Fatalf("mapped bundle with MR.Q = 0: Store() = %v, want the pooling exponent refused", err)
	}
}
