package platform_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

const (
	validSpan   = `"span_start":"2012-06-01T00:00:00Z","span_end":"2013-06-01T00:00:00Z"`
	oneAccount  = `{"local":0,"person":0,"username":"a"}`
	eventsAt    = `{"local":0,"person":0,"username":"a","events":[{"time":"2012-07-01T00:00:00Z","lat":%v,"lon":%v}]}`
	twoAccounts = `{"local":0,"person":3,"username":"a"},{"local":1,"person":%d,"username":"b"}`
)

// twitterWorld is a one-platform world file.
func twitterWorld(span, accounts, edges string) string {
	return `{` + span + `,"platforms":[{"id":"twitter","accounts":[` + accounts + `],"edges":[` + edges + `]}]}`
}

func oneAccountWorld(edge string) string { return twitterWorld(validSpan, oneAccount, edge) }

// badWorlds are worlds no generator writes. Each would otherwise train
// without complaint: a latitude of 1e6 moves F1, and a second account of
// one person replaces the first in the ground truth.
var badWorlds = []struct{ name, world, want string }{
	{"span-swapped", twitterWorld(`"span_start":"2013-06-01T00:00:00Z","span_end":"2012-06-01T00:00:00Z"`, oneAccount, ""),
		"span_end 2012-06-01T00:00:00Z is not after span_start 2013-06-01T00:00:00Z"},
	{"span-empty", twitterWorld(`"span_start":"2012-06-01T00:00:00Z","span_end":"2012-06-01T00:00:00Z"`, oneAccount, ""),
		"is not after span_start"},
	{"latitude-off-globe", twitterWorld(validSpan, fmt.Sprintf(eventsAt, 1e6, 0), ""),
		"event 0 of account 0 of twitter is at (1e+06, 0), off the globe"},
	{"latitude-below-pole", twitterWorld(validSpan, fmt.Sprintf(eventsAt, -90.5, 0), ""),
		"event 0 of account 0 of twitter is at (-90.5, 0)"},
	{"longitude-off-globe", twitterWorld(validSpan, fmt.Sprintf(eventsAt, 0, 180.5), ""),
		"event 0 of account 0 of twitter is at (0, 180.5)"},
	{"duplicate-person", twitterWorld(validSpan, fmt.Sprintf(twoAccounts, 3), ""),
		"accounts 0 and 1 of twitter both belong to person 3"},
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

func TestDecodeRefusesBadWorlds(t *testing.T) {
	for _, tc := range badWorlds {
		t.Run(tc.name, func(t *testing.T) {
			_, err := platform.Decode(strings.NewReader(tc.world))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The edges of each check still decode: the poles, the antimeridian
	// and two persons with one account each.
	for _, ok := range []string{
		twitterWorld(validSpan, fmt.Sprintf(eventsAt, 90, -180), ""),
		twitterWorld(validSpan, fmt.Sprintf(eventsAt, -90, 180), ""),
		twitterWorld(validSpan, fmt.Sprintf(twoAccounts, 4), ""),
	} {
		if _, err := platform.Decode(strings.NewReader(ok)); err != nil {
			t.Fatalf("valid world refused: %v\n%s", err, ok)
		}
	}
}

// genWorld is what `hydra-gen -dataset all -persons n -seed seed` writes.
func genWorld(tb testing.TB, n int, seed int64) []byte {
	tb.Helper()
	w, err := synth.Generate(synth.DefaultConfig(n, platform.AllPlatforms, seed))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := platform.Encode(&buf, w.Dataset); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// pinnedWorldSHA256 is sha256 of genWorld(40, 1): a 40-person world on
// all seven platforms, as hydra-gen writes it.
const pinnedWorldSHA256 = "f1f5018255f4b30a31efa9f53dfaa97b1bbd39b7dd4c249f3c724948227eecd4"

// TestPinnedWorldHash holds the generator and the encoder to the bytes
// they wrote when the hash was recorded. No training runs, so a drift on
// any platform — a changed draw, field or edge order — fails here.
func TestPinnedWorldHash(t *testing.T) {
	got := fmt.Sprintf("%x", sha256.Sum256(genWorld(t, 40, 1)))
	if got != pinnedWorldSHA256 {
		t.Fatalf("world sha256 = %s, want %s", got, pinnedWorldSHA256)
	}
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
// writes: seeds 1–3 of a 40-person world on every platform decode and
// re-encode to the same bytes.
func TestGeneratedWorldsRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		raw := genWorld(t, 40, seed)
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
	f.Add([]byte(`{` + validSpan + `,"platforms":[{"id":"twitter","accounts":[{"local":1}]}]}`))
	f.Add([]byte(`{` + validSpan + `,"platforms":[{"id":"twitter"},{"id":"twitter"}]}`))
	f.Add([]byte{})
	for _, tc := range badWorlds {
		f.Add([]byte(tc.world))
	}
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
