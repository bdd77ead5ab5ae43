package synth

import (
	"io"

	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// streamChunk is how many accounts GenerateStream renders per parallel
// batch before flushing them to the encoder. Bounds resident account
// memory regardless of world size while keeping the worker pool busy.
const streamChunk = 1024

// GenerateStream renders the same world Generate builds but writes it
// to w as it goes: the latent persons, real-world graph and per-platform
// friendship projections stay in memory (O(persons) — cheap), while the
// accounts carrying the bulk of a big world (posts, check-ins, media
// events) are rendered in bounded chunks and streamed out. The output is
// byte-identical to Encode over Generate's dataset, at any worker
// count — every account still comes from its own (platform, person)
// seeded stream, so chunking changes nothing.
func GenerateStream(cfg Config, w io.Writer) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	lx := BuildLexicons(cfg.Topics, cfg.WordsPerTopic)

	persons := make([]*Person, cfg.Persons)
	parallel.For(cfg.Workers, cfg.Persons, func(i int) {
		persons[i] = randPerson(subRNG(cfg.Seed, streamPerson, uint64(i)), i,
			cfg.Topics, len(cfg.Platforms), cfg.Communities)
	})
	real := realWorldGraph(persons, cfg)
	tilts := make(map[platform.ID]linalg.Vector, len(cfg.Platforms))
	for pi, pid := range cfg.Platforms {
		tilts[pid] = dirichlet(subRNG(cfg.Seed, streamTilt, uint64(pi)), cfg.Topics, 0.5)
	}

	// Encode emits platforms sorted by ID; the seeded streams are keyed
	// by the configured platform order (pIdx), so sort an index list and
	// keep each platform's original position for its streams.
	order := make([]int, len(cfg.Platforms))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && cfg.Platforms[order[j]] < cfg.Platforms[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	enc, err := platform.NewStreamEncoder(w, cfg.Span)
	if err != nil {
		return err
	}
	for _, pIdx := range order {
		if err := streamPlatform(enc, cfg.Platforms[pIdx], pIdx, persons, real, tilts[cfg.Platforms[pIdx]], lx, cfg); err != nil {
			return err
		}
	}
	return enc.Close()
}

// streamPlatform is projectPlatform's streaming twin: identical seeded
// streams (permutation, per-account, edge projection), but accounts are
// rendered a chunk at a time in local-id order and handed straight to
// the encoder instead of accumulating.
func streamPlatform(enc *platform.StreamEncoder, pid platform.ID, pIdx int, persons []*Person,
	real *graph.Graph, tilt linalg.Vector, lx *Lexicons, cfg Config) error {

	n := len(persons)
	lang := string(platform.LangOf(pid))
	corruption := cfg.UsernameCorruption
	if lang == "zh" {
		corruption *= 1.6 // Chinese platforms show heavier name divergence
	}

	perm := subRNG(cfg.Seed, streamPerm, uint64(pIdx)).Perm(n)
	localOf := make([]int, n)
	for local, person := range perm {
		localOf[person] = local
	}

	if err := enc.BeginPlatform(pid); err != nil {
		return err
	}
	chunk := make([]*platform.Account, streamChunk)
	for base := 0; base < n; base += streamChunk {
		m := streamChunk
		if base+m > n {
			m = n - base
		}
		parallel.For(cfg.Workers, m, func(i int) {
			local := base + i
			person := perm[local]
			chunk[i] = renderAccount(pid, pIdx, person, local, persons[person], tilt, lx, cfg, lang, corruption)
		})
		for i := 0; i < m; i++ {
			if err := enc.WriteAccount(chunk[i]); err != nil {
				return err
			}
			chunk[i] = nil
		}
	}

	g := graph.New(n)
	projectEdges(pIdx, localOf, real, cfg, g)
	return enc.EndPlatform(g)
}
