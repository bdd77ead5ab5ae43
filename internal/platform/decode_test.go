package platform_test

import (
	"bytes"
	"strings"
	"testing"

	"hydra/internal/platform"
	"hydra/internal/synth"
)

// badEdgeWorlds are one-account worlds whose single edge Decode must
// refuse. The first once reached graph.AddEdge and panicked with
// "graph: node 7 out of range [0,1)", killing hydra-link -in.
var badEdgeWorlds = []struct{ name, edge, want string }{
	{"endpoint-past-end", `{"U":0,"V":7,"W":1}`, "edge 0 of twitter joins accounts 0 and 7, outside [0,1)"},
	{"negative-endpoint", `{"U":-1,"V":0,"W":1}`, "edge 0 of twitter joins accounts -1 and 0"},
	{"self-loop-past-end", `{"U":3,"V":3,"W":1}`, "edge 0 of twitter joins accounts 3 and 3"},
	{"negative-weight", `{"U":0,"V":0,"W":-0.5}`, "edge 0 of twitter has negative weight -0.5"},
}

func oneAccountWorld(edge string) string {
	return `{"span_start":"2012-06-01T00:00:00Z","span_end":"2013-06-01T00:00:00Z","platforms":[` +
		`{"id":"twitter","accounts":[{"local":0,"person":0,"username":"a"}],"edges":[` + edge + `]}]}`
}

func TestDecodeRefusesBadEdges(t *testing.T) {
	for _, tc := range badEdgeWorlds {
		t.Run(tc.name, func(t *testing.T) {
			_, err := platform.Decode(strings.NewReader(oneAccountWorld(tc.edge)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The same account with a harmless edge decodes (self-loops are
	// ignored, and a zero weight is allowed).
	if _, err := platform.Decode(strings.NewReader(oneAccountWorld(`{"U":0,"V":0,"W":0}`))); err != nil {
		t.Fatalf("valid one-account world refused: %v", err)
	}
}

// genWorld is what `hydra-gen -persons n -seed seed` writes.
func genWorld(tb testing.TB, n int, seed int64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := synth.GenerateStream(synth.DefaultConfig(n, platform.EnglishPlatforms, seed), &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reencode decodes a world and encodes it again.
func reencode(data []byte) ([]byte, error) {
	d, err := platform.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = platform.Encode(&buf, d)
	return buf.Bytes(), err
}

// TestGeneratedWorldsRoundTrip holds Decode's checks to what hydra-gen
// writes: seeds 1–3 decode and re-encode to the same bytes.
func TestGeneratedWorldsRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		raw := genWorld(t, 12, seed)
		got, err := reencode(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("seed %d: re-encoded world differs from hydra-gen's bytes", seed)
		}
	}
}

// FuzzDecodeWorld drives the world decoder — what hydra-link -in reads —
// over arbitrary bytes: it must refuse with an error, never panic, and
// anything it accepts must re-encode to a fixed point (decoding its own
// encoding gives the same bytes again).
func FuzzDecodeWorld(f *testing.F) {
	f.Add(genWorld(f, 2, 1))
	for _, tc := range badEdgeWorlds {
		f.Add([]byte(oneAccountWorld(tc.edge)))
	}
	f.Add([]byte(`{"platforms":[{"id":"twitter","accounts":[{"local":1}]}]}`))
	f.Add([]byte(`{"platforms":[{"id":"twitter"},{"id":"twitter"}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := platform.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := platform.Encode(&buf, d); err != nil {
			t.Fatalf("accepted world does not encode: %v", err)
		}
		once := buf.Bytes()
		twice, err := reencode(once)
		if err != nil {
			t.Fatalf("accepted world's encoding does not round-trip: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("accepted world does not re-encode to a fixed point:\n%s\n%s", once, twice)
		}
	})
}
