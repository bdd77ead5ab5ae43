package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hydra/internal/attr"
	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// fixtureMultiBundle scales the golden fixture up to a splittable world:
// two A-side (twitter) accounts and six B-side (facebook) accounts, so a
// 3-way split leaves every shard with something to own. Friend edges
// stay in range and the index covers every B account, so the ownership
// partition and the friend-closure retention both get exercised.
func fixtureMultiBundle() *Bundle {
	b := fixtureBundle()
	tview := b.Views[platform.Twitter][0]
	fview := b.Views[platform.Facebook][0]

	tviews := make([]features.ViewParts, 2)
	for i := range tviews {
		tviews[i] = tview
		tviews[i].Username = fmt.Sprintf("tw_user%d", i)
		tviews[i].AvatarID = uint64(i + 1)
	}
	fviews := make([]features.ViewParts, 6)
	ffriends := make([][]graph.Friend, 6)
	for j := range fviews {
		fviews[j] = fview
		fviews[j].Username = fmt.Sprintf("fb_user%d", j)
		fviews[j].AvatarID = uint64(j + 1)
		// A small cycle plus one chord: friend closures overlap shards.
		ffriends[j] = []graph.Friend{{ID: (j + 1) % 6, Weight: 1.5}}
		if j%2 == 0 {
			ffriends[j] = append(ffriends[j], graph.Friend{ID: (j + 3) % 6, Weight: 0.5})
		}
	}
	b.Views[platform.Twitter] = tviews
	b.Views[platform.Facebook] = fviews
	b.Friends[platform.Twitter] = [][]graph.Friend{{{ID: 1, Weight: 2.5}}, {{ID: 0, Weight: 1.25}}}
	b.Friends[platform.Facebook] = ffriends

	rows := make([][]blocking.Candidate, 2)
	for b6 := 0; b6 < 6; b6++ {
		rows[0] = append(rows[0], blocking.Candidate{A: 0, B: b6, Score: 0.9 - 0.1*float64(b6), PreMatched: b6 == 0})
	}
	for _, b6 := range []int{1, 3, 5} {
		rows[1] = append(rows[1], blocking.Candidate{A: 1, B: b6, Score: 0.8 - 0.1*float64(b6)})
	}
	b.Indexes = []blocking.IndexParts{{
		PA:    platform.Twitter,
		PB:    platform.Facebook,
		Rules: fixtureRules(),
		ByA:   rows,
	}}
	return b
}

const (
	testShardSeed = 7
	testShardGen  = 1
)

func TestSplitBundleOwnershipPartition(t *testing.T) {
	b := fixtureMultiBundle()
	const count = 3
	subs, err := SplitBundle(b, count, testShardSeed, testShardGen)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != count {
		t.Fatalf("got %d shards, want %d", len(subs), count)
	}

	for i, sb := range subs {
		d := sb.Shard
		if d == nil {
			t.Fatalf("shard %d has no descriptor", i)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("shard %d descriptor invalid: %v", i, err)
		}
		if d.Index != i || d.Count != count || d.Generation != testShardGen || d.Seed != testShardSeed {
			t.Fatalf("shard %d descriptor wrong: %+v", i, d)
		}
		if len(d.BSide) != 1 || d.BSide[0] != platform.Facebook {
			t.Fatalf("shard %d restricts %v, want [facebook]", i, d.BSide)
		}
		// A-side state is replicated verbatim.
		if !reflect.DeepEqual(sb.Views[platform.Twitter], b.Views[platform.Twitter]) {
			t.Fatalf("shard %d altered A-side views", i)
		}
		if !reflect.DeepEqual(sb.Friends[platform.Twitter], b.Friends[platform.Twitter]) {
			t.Fatalf("shard %d altered A-side friends", i)
		}
	}

	// Every B account is owned by exactly one shard, and that is the only
	// shard carrying its friend slice.
	for j := 0; j < 6; j++ {
		owners := 0
		for i, sb := range subs {
			owns := sb.Shard.ShardOf(platform.Facebook, j) == i
			hasFriends := sb.Friends[platform.Facebook][j] != nil
			if owns != hasFriends {
				t.Fatalf("shard %d: account %d owned=%v but friends retained=%v", i, j, owns, hasFriends)
			}
			if owns {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("account %d owned by %d shards", j, owners)
		}
	}

	// Views: exactly the owned slice plus its friend closure is non-zero,
	// and the friend closure recomputed from the shipped friend slices —
	// what a restored store restricts by — reports the same set.
	for i, sb := range subs {
		want := make([]bool, 6)
		for j := 0; j < 6; j++ {
			if sb.Shard.ShardOf(platform.Facebook, j) != i {
				continue
			}
			want[j] = true
			for _, f := range b.Friends[platform.Facebook][j] {
				want[f.ID] = true
			}
		}
		got := friendClosure(sb.Shard, &heapSnapshot{friends: sb.Friends})[platform.Facebook]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d friend closure = %v, want %v", i, got, want)
		}
		for j := 0; j < 6; j++ {
			packed := sb.Views[platform.Facebook][j].Username != ""
			if packed != want[j] {
				t.Fatalf("shard %d: account %d view packed=%v, want %v", i, j, packed, want[j])
			}
		}
	}

	// Index rows: the per-shard rows are disjoint and their union is the
	// unsplit index, row by row.
	for a := 0; a < 2; a++ {
		var union []blocking.Candidate
		seen := map[int]int{}
		for _, sb := range subs {
			for _, c := range sb.Indexes[0].ByA[a] {
				seen[c.B]++
				union = append(union, c)
			}
		}
		for bID, n := range seen {
			if n != 1 {
				t.Fatalf("a=%d: candidate B=%d appears in %d shards", a, bID, n)
			}
		}
		if len(union) != len(b.Indexes[0].ByA[a]) {
			t.Fatalf("a=%d: union has %d candidates, want %d", a, len(union), len(b.Indexes[0].ByA[a]))
		}
		for _, c := range b.Indexes[0].ByA[a] {
			si := subs[0].Shard.ShardOf(platform.Facebook, c.B)
			found := false
			for _, sc := range subs[si].Indexes[0].ByA[a] {
				if sc == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("a=%d: candidate %+v missing from owning shard %d", a, c, si)
			}
		}
	}
}

func TestSplitBundleRefusals(t *testing.T) {
	b := fixtureMultiBundle()
	if _, err := SplitBundle(b, 0, 0, 1); err == nil {
		t.Error("split into 0 shards did not error")
	}
	if _, err := SplitBundle(b, 2, 0, 0); err == nil {
		t.Error("split with generation 0 did not error")
	}
	subs, err := SplitBundle(b, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitBundle(subs[0], 2, 0, 2); err == nil {
		t.Error("re-splitting an already-sharded bundle did not error")
	}
	both := fixtureMultiBundle()
	both.Pairs = append(both.Pairs, [2]platform.ID{platform.Facebook, platform.Twitter})
	if _, err := SplitBundle(both, 2, 0, 1); err == nil {
		t.Error("splitting with a platform on both sides did not error")
	}
}

// TestShardDescGates pins the read/write-time validation: a corrupted
// shard stamp must fail loudly at both ends of the wire instead of
// silently mis-routing queries.
func TestShardDescGates(t *testing.T) {
	subs, err := SplitBundle(fixtureMultiBundle(), 2, testShardSeed, testShardGen)
	if err != nil {
		t.Fatal(err)
	}

	sb := *subs[0]
	bad := *sb.Shard
	bad.Index = 5 // out of [0,2)
	sb.Shard = &bad
	var buf bytes.Buffer
	if err := WriteBundle(&buf, &sb); err == nil {
		t.Error("write accepted out-of-range shard index")
	}

	// Read gate: the v3 header is JSON — corrupt the descriptor in the
	// encoded bytes (the section lengths that follow are untouched).
	sb3 := *subs[0]
	var buf3 bytes.Buffer
	if err := WriteBundle(&buf3, &sb3); err != nil {
		t.Fatal(err)
	}
	raw := buf3.Bytes()
	idx := bytes.Index(raw, []byte(`"count":2`))
	if idx < 0 {
		t.Fatal("v3 header did not contain the shard count to corrupt")
	}
	mutated := append([]byte(nil), raw...)
	copy(mutated[idx:], []byte(`"count":0`))
	if _, err := ReadBundle(mutated); err == nil {
		t.Error("v3 read accepted shard count 0")
	}
}

func TestShardedBundleRoundTrip(t *testing.T) {
	subs, err := SplitBundle(fixtureMultiBundle(), 3, testShardSeed, testShardGen)
	if err != nil {
		t.Fatal(err)
	}
	for i, sb := range subs {
		var buf bytes.Buffer
		if err := WriteBundle(&buf, sb); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadBundle(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, sb) {
			t.Fatalf("shard %d did not round-trip", i)
		}
		store, err := decoded.Store()
		if err != nil {
			t.Fatal(err)
		}
		// The restored store must refuse absent accounts and serve
		// present ones: pick one of each.
		var owned, absent = -1, -1
		present := friendClosure(decoded.Shard, &heapSnapshot{friends: decoded.Friends})[platform.Facebook]
		for j, p := range present {
			if p && owned < 0 && decoded.Shard.ShardOf(platform.Facebook, j) == i {
				owned = j
			}
			if !p && absent < 0 {
				absent = j
			}
		}
		if owned >= 0 {
			if _, err := store.Friends(platform.Facebook, owned, 3); err != nil {
				t.Fatalf("shard %d: owned account %d refused: %v", i, owned, err)
			}
		}
		if absent >= 0 {
			if _, err := store.Friends(platform.Facebook, absent, 3); err == nil {
				t.Fatalf("shard %d: absent account %d served without error", i, absent)
			}
		}
	}
}

// TestShardedBundleGoldenFormat pins the sharded v3 wire format byte for
// byte — descriptor stamp, zeroed absent views, filtered index rows —
// exactly like the unsharded golden pins. Regenerate after an
// intentional format change with:
//
//	go test ./internal/pipeline/ -run Golden -update
func TestShardedBundleGoldenFormat(t *testing.T) {
	subs, err := SplitBundle(fixtureMultiBundle(), 2, testShardSeed, testShardGen)
	if err != nil {
		t.Fatal(err)
	}
	sb := subs[0]
	golden := checkGolden(t, "bundle_v3_shard0.golden.bin", func(buf *bytes.Buffer) error {
		return WriteBundle(buf, sb)
	})
	decoded, err := ReadBundle(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, sb) {
		t.Fatalf("decoded golden sharded bundle differs from fixture")
	}
	if _, err := decoded.Store(); err != nil {
		t.Fatal(err)
	}
}

// TestShardFriendClosureBothBackings holds the one friend-closure rule to
// both store backings: every shard of a 3-way split, opened decoded
// (Bundle.Store) and mapped (OpenBundleMapped(...).Store), must give the
// same serve-or-refuse verdict from Friends and RawPair for every B-side
// account — serve exactly the accounts whose views SplitBundle packed.
func TestShardFriendClosureBothBackings(t *testing.T) {
	b := fixtureMultiBundle()
	// Widen the importance model to every matched attribute so the
	// fixture's views pair (the golden fixture's two attributes only
	// round-trip, they do not span the pipeline's feature space).
	b.Pipeline.Importance = &attr.Importance{Attrs: platform.MatchAttrs, Scores: make(linalg.Vector, len(platform.MatchAttrs))}
	subs, err := SplitBundle(b, 3, testShardSeed, testShardGen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	verdicts := map[bool]int{}
	for i, sb := range subs {
		path := fmt.Sprintf("%s/shard%d.bin", dir, i)
		if err := SaveBundle(path, sb); err != nil {
			t.Fatal(err)
		}
		decoded, err := sb.Store()
		if err != nil {
			t.Fatal(err)
		}
		mb, err := OpenBundleMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := mb.Store()
		if err != nil {
			mb.Close()
			t.Fatal(err)
		}
		for j, v := range sb.Views[platform.Facebook] {
			packed := v.Username != ""
			verdicts[packed]++
			for name, st := range map[string]*core.LazyStore{"decoded": decoded, "mapped": mapped} {
				_, ferr := st.Friends(platform.Facebook, j, 3)
				_, perr := st.RawPair(platform.Twitter, 0, platform.Facebook, j)
				if (ferr == nil) != packed || (perr == nil) != packed {
					t.Fatalf("shard %d %s: facebook %d Friends err=%v RawPair err=%v, view packed=%v", i, name, j, ferr, perr, packed)
				}
			}
		}
		if err := mb.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("split exercised only one verdict: %v", verdicts)
	}
}
