package synth

import (
	"bytes"
	"testing"

	"hydra/internal/platform"
)

// TestGenerateWorkersByteIdentical pins the generator's fan-out contract:
// the same seed produces a byte-identical world at any worker count,
// because every random draw comes from a per-person or per-platform
// seeded stream instead of one shared sequential one. The comparison
// goes through the world codec, so it covers profiles, posts, events and
// the projected graphs down to the last float bit.
func TestGenerateWorkersByteIdentical(t *testing.T) {
	encode := func(workers int) []byte {
		cfg := DefaultConfig(45, platform.EnglishPlatforms, 21)
		cfg.Workers = workers
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := platform.Encode(&buf, w.Dataset); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(1)
	for _, workers := range []int{2, 3, 8} {
		if got := encode(workers); !bytes.Equal(got, want) {
			t.Fatalf("world bytes differ between 1 and %d workers", workers)
		}
	}
}

// TestSeededStreamsIndependent guards the stream separation: bumping
// the seed must change the world (no degenerate stream mixing), and two
// persons' streams must differ within one seed.
func TestSeededStreamsIndependent(t *testing.T) {
	a := subRNG(7, streamPerson, 0).Int63()
	b := subRNG(7, streamPerson, 1).Int63()
	c := subRNG(8, streamPerson, 0).Int63()
	d := subRNG(7, streamAccount, 0, 0).Int63()
	if a == b || a == c || a == d {
		t.Fatalf("streams collide: person0=%d person1=%d seed8=%d account=%d", a, b, c, d)
	}
}
