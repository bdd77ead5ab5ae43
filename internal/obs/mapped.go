package obs

import (
	"fmt"
	"io"
	"sort"
)

// Mapped-serving and blocking fan-out observability. Both follow the
// pull-style pattern of impute.go: the engine's counters live where the
// work happens (the mapped bundle's residency atomics, the candidate
// indexes' length tables), so the serve side wires snapshot functions
// that Render evaluates per scrape. Mirrors pipeline.MappedStats and
// blocking.Fanout field for field; obs stays import-free of both.

// MappedStats is one engine's mapped-bundle health: whether the bundle
// file is memory-mapped, its size, how many vectors were answered
// zero-copy vs copy-decoded, and how much of each lazy section has been
// materialized so far.
type MappedStats struct {
	Mapped          bool
	Bytes           int
	AliasedVecs     uint64
	CopiedVecs      uint64
	ResidentViews   int
	TotalViews      int
	ResidentFriends int
	TotalFriends    int
	ResidentRows    int
	TotalRows       int
}

// PairFanout is one indexed platform pair's candidate-set size
// distribution: how many candidate rows the blocking stage emits per
// A-side account.
type PairFanout struct {
	PA, PB string
	Rows   int
	Total  int
	Mean   float64
	P99    int
	Max    int
}

// SetMappedSource wires the mapped-bundle snapshot function Render calls
// per scrape; src returns ok=false when the current engine serves an
// in-memory bundle (no mapped metrics are emitted then). Call before the
// process starts serving; the field is not synchronized.
func (m *Metrics) SetMappedSource(src func() (MappedStats, bool)) {
	m.mappedSource = src
}

// SetFanoutSource wires the per-pair fan-out snapshot function Render
// calls per scrape. Call before the process starts serving; the field
// is not synchronized.
func (m *Metrics) SetFanoutSource(src func() []PairFanout) {
	m.fanoutSource = src
}

// renderMapped writes the mapped-serving and fan-out metrics; called
// from Render.
func (m *Metrics) renderMapped(w io.Writer) {
	if m.mappedSource != nil {
		if s, ok := m.mappedSource(); ok {
			mapped := 0
			if s.Mapped {
				mapped = 1
			}
			fmt.Fprintf(w, "# HELP hydra_bundle_mapped Whether the serving bundle is memory-mapped (0 = heap copy fallback).\n")
			fmt.Fprintf(w, "# TYPE hydra_bundle_mapped gauge\n")
			fmt.Fprintf(w, "hydra_bundle_mapped %d\n", mapped)
			fmt.Fprintf(w, "# HELP hydra_bundle_bytes Size of the serving bundle backing the mapped engine.\n")
			fmt.Fprintf(w, "# TYPE hydra_bundle_bytes gauge\n")
			fmt.Fprintf(w, "hydra_bundle_bytes %d\n", s.Bytes)
			fmt.Fprintf(w, "# HELP hydra_bundle_vec_decodes_total Vector decodes from the mapped bundle by mode; aliased vectors reinterpret mapped bytes zero-copy, copied ones fall back to a heap decode.\n")
			fmt.Fprintf(w, "# TYPE hydra_bundle_vec_decodes_total counter\n")
			fmt.Fprintf(w, "hydra_bundle_vec_decodes_total{mode=\"aliased\"} %d\n", s.AliasedVecs)
			fmt.Fprintf(w, "hydra_bundle_vec_decodes_total{mode=\"copied\"} %d\n", s.CopiedVecs)
			fmt.Fprintf(w, "# HELP hydra_bundle_resident Materialized entries per lazy bundle section (the working set); total is the packed entry count.\n")
			fmt.Fprintf(w, "# TYPE hydra_bundle_resident gauge\n")
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"views\",stat=\"resident\"} %d\n", s.ResidentViews)
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"views\",stat=\"total\"} %d\n", s.TotalViews)
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"friends\",stat=\"resident\"} %d\n", s.ResidentFriends)
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"friends\",stat=\"total\"} %d\n", s.TotalFriends)
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"index_rows\",stat=\"resident\"} %d\n", s.ResidentRows)
			fmt.Fprintf(w, "hydra_bundle_resident{section=\"index_rows\",stat=\"total\"} %d\n", s.TotalRows)
		}
	}

	if m.fanoutSource != nil {
		fans := m.fanoutSource()
		sort.Slice(fans, func(i, j int) bool {
			if fans[i].PA != fans[j].PA {
				return fans[i].PA < fans[j].PA
			}
			return fans[i].PB < fans[j].PB
		})
		if len(fans) > 0 {
			fmt.Fprintf(w, "# HELP hydra_blocking_fanout Candidate-set size distribution per indexed platform pair (rows = A-side accounts, candidates emitted per account: mean/p99/max).\n")
			fmt.Fprintf(w, "# TYPE hydra_blocking_fanout gauge\n")
			for _, f := range fans {
				fmt.Fprintf(w, "hydra_blocking_fanout{pa=%q,pb=%q,stat=\"rows\"} %d\n", f.PA, f.PB, f.Rows)
				fmt.Fprintf(w, "hydra_blocking_fanout{pa=%q,pb=%q,stat=\"candidates\"} %d\n", f.PA, f.PB, f.Total)
				fmt.Fprintf(w, "hydra_blocking_fanout{pa=%q,pb=%q,stat=\"mean\"} %g\n", f.PA, f.PB, f.Mean)
				fmt.Fprintf(w, "hydra_blocking_fanout{pa=%q,pb=%q,stat=\"p99\"} %d\n", f.PA, f.PB, f.P99)
				fmt.Fprintf(w, "hydra_blocking_fanout{pa=%q,pb=%q,stat=\"max\"} %d\n", f.PA, f.PB, f.Max)
			}
		}
	}
}
