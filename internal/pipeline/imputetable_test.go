package pipeline

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hydra/internal/core"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// fixtureImputeTable is a tiny hand-written impute table consistent with
// fixtureBundle's 2-dim feature space and FriendsK 3: one entry for the
// single index candidate (0, 0), so every field of the wire layout — id
// arrays, counts, row-major sums — appears in the golden bytes.
func fixtureImputeTable() *core.ImputeTableParts {
	return &core.ImputeTableParts{
		K:   3,
		Dim: 2,
		Pairs: []core.ImputeTablePairParts{{
			PA: platform.Twitter, PB: platform.Facebook,
			A:      []int32{0},
			B:      []int32{0},
			Counts: linalg.Vector{1},
			Sums:   linalg.Vector{0.5, -0.25},
		}},
	}
}

// TestBundleV3ImputeTableGoldenFormat pins the v3 bundle *with* the
// optional trailing impute-table section (alongside the prescreen, so
// the golden exercises the two-optional-sections ordering), and asserts
// the decoded parts reach the restored store (the one copy the model
// reads).
func TestBundleV3ImputeTableGoldenFormat(t *testing.T) {
	b := fixtureBundle()
	b.Prescreen = fixturePrescreen()
	b.ImputeTable = fixtureImputeTable()
	checkBundleGolden(t, b, "bundle_v3_imputetable.golden.bin")
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	store, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	tbl := store.ImputeTable()
	if tbl == nil || tbl.NumEntries() != 1 || tbl.K() != 3 {
		t.Fatalf("decoded impute table did not attach to the restored store: %+v", tbl)
	}
	if _, err := core.ModelFromParts(store, decoded.Model); err != nil {
		t.Fatal(err)
	}
}

// TestBundleV3AbsentImputeTableReads is the absent-section gate: a v3
// bundle without the table decodes with a nil table, restores, and
// serves imputation through the live path.
func TestBundleV3AbsentImputeTableReads(t *testing.T) {
	b := fixtureBundle()
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ImputeTable != nil {
		t.Fatal("table-less bundle decoded a phantom impute table")
	}
	store, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	if store.ImputeTable() != nil {
		t.Fatal("table-less store carries an impute table")
	}
	// That the table-less store still *serves* exact is asserted over a
	// real trained bundle by TestImputeTableBitIdenticalWorkers (the
	// codec fixture's views are not feature-consistent enough to score).
	if _, err := core.ModelFromParts(store, decoded.Model); err != nil {
		t.Fatal(err)
	}
}

// TestImputeTableBitIdenticalWorkers is the table's correctness
// property: the table the packer builds through the training store
// equals one built over the bundle's own restored store, and over a
// trained, wire-round-tripped bundle, table-backed imputation and
// scoring are bit-identical to the live path for every index-shard
// candidate pair — and for a seeded random sample of off-index pairs,
// which miss the table and exercise the fallback — at workers 1 and 4
// (run under -race by `make race`).
func TestImputeTableBitIdenticalWorkers(t *testing.T) {
	const seed = 3
	worldPath := writeWorld(t, 24, seed)
	fitted := fitWorld(t, worldPath, seed, 0)
	b, err := fitted.Bundle(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.ImputeTable == nil {
		t.Fatal("packed HYDRA-M bundle carries no impute table")
	}
	// The packer builds the table through the training system's store;
	// a store freshly restored from the bundle must record the same one.
	restored, err := BuildBundleImputeTable(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, b.ImputeTable) {
		t.Fatal("the packed impute table differs from one built over the restored bundle store")
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.ImputeTable, b.ImputeTable) {
		t.Fatal("impute table changed across the wire round trip")
	}
	noTbl := *decoded
	noTbl.ImputeTable = nil
	stWith, err := decoded.Store()
	if err != nil {
		t.Fatal(err)
	}
	stLive, err := noTbl.Store()
	if err != nil {
		t.Fatal(err)
	}
	mWith, err := core.ModelFromParts(stWith, decoded.Model)
	if err != nil {
		t.Fatal(err)
	}
	mLive, err := core.ModelFromParts(stLive, decoded.Model)
	if err != nil {
		t.Fatal(err)
	}
	k := decoded.Model.Cfg.ResolvedTopFriends()
	for _, ix := range decoded.Indexes {
		var pairs [][2]int
		for _, row := range ix.ByA {
			for _, c := range row {
				pairs = append(pairs, [2]int{c.A, c.B})
			}
		}
		// A seeded random sample of off-index pairs: mostly table misses,
		// so the live fallback runs side by side with the hits above.
		rng := rand.New(rand.NewSource(99))
		na, nb := len(decoded.Views[ix.PA]), len(decoded.Views[ix.PB])
		for i := 0; i < 100; i++ {
			pairs = append(pairs, [2]int{rng.Intn(na), rng.Intn(nb)})
		}
		for _, p := range pairs {
			xw, err := stWith.Impute(ix.PA, p[0], ix.PB, p[1], core.HydraM, k)
			if err != nil {
				t.Fatal(err)
			}
			xl, err := stLive.Impute(ix.PA, p[0], ix.PB, p[1], core.HydraM, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(xw, xl) {
				t.Fatalf("imputed vectors differ for pair %v: table %v vs live %v", p, xw, xl)
			}
		}
		for _, workers := range []int{1, 4} {
			outW := make([]float64, len(pairs))
			outL := make([]float64, len(pairs))
			if err := mWith.ScoreBatchInto(ix.PA, ix.PB, pairs, workers, outW); err != nil {
				t.Fatal(err)
			}
			if err := mLive.ScoreBatchInto(ix.PA, ix.PB, pairs, workers, outL); err != nil {
				t.Fatal(err)
			}
			for i := range outW {
				if math.Float64bits(outW[i]) != math.Float64bits(outL[i]) {
					t.Fatalf("workers=%d pair %v: table score %x differs from live %x",
						workers, pairs[i], math.Float64bits(outW[i]), math.Float64bits(outL[i]))
				}
			}
		}
	}
	hits, _ := stWith.ImputeTable().Stats()
	if hits == 0 {
		t.Fatal("the table was never hit — the property test exercised nothing")
	}
	if h, m, _ := stWith.PairCacheStats(); h+m == 0 {
		t.Fatal("pair cache counters never moved")
	}
}
