package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/topic"
)

// Config parameterizes the synthetic world. The zero value is not usable;
// call DefaultConfig and override.
type Config struct {
	Persons   int
	Platforms []platform.ID
	Seed      int64
	// Span is the observation window (paper: June 2012 – June 2013).
	Span temporal.Range

	Topics        int // latent interest topics
	WordsPerTopic int

	// PostsMean is the mean number of posts per account on a non-primary
	// platform; the primary platform posts PrimaryBoost× as much (data
	// imbalance).
	PostsMean    int
	CheckinsMean int
	MediaMean    int
	PrimaryBoost float64

	// MissingScale scales the per-attribute missingness probabilities
	// (1 = the calibrated defaults reproducing Figure 2(a)'s regime).
	MissingScale float64
	// DeceptionRate is the probability a deceptive person falsifies a
	// present attribute on a given platform.
	DeceptionRate float64
	// UsernameCorruption is the probability of bizarre-character
	// decoration per account (higher on Chinese platforms).
	UsernameCorruption float64
	// ContentDivergence in [0,1] tilts each platform's content away from
	// the person's true topic mix (the paper measured 25–85% divergence).
	ContentDivergence float64
	// EdgeCoverage is the probability a real-world friendship materializes
	// as an edge on a given platform.
	EdgeCoverage float64
	// AvatarRate is the probability an account uses the person's real
	// face photo as avatar.
	AvatarRate float64

	Communities int
	// MeanFriends is the target mean real-world degree.
	MeanFriends float64

	// Workers pins the generation fan-out (≤ 0 = all cores). Every
	// random draw comes from a per-person or per-platform seeded stream
	// (see subRNG), so the generated world is byte-identical at any
	// worker count.
	Workers int
}

// DefaultConfig returns the calibrated world configuration used by tests
// and experiments.
func DefaultConfig(persons int, platforms []platform.ID, seed int64) Config {
	start := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	return Config{
		Persons:            persons,
		Platforms:          platforms,
		Seed:               seed,
		Span:               temporal.Range{Start: start, End: start.AddDate(1, 0, 0)},
		Topics:             8,
		WordsPerTopic:      40,
		PostsMean:          12,
		CheckinsMean:       8,
		MediaMean:          4,
		PrimaryBoost:       2.5,
		MissingScale:       1,
		DeceptionRate:      0.5,
		UsernameCorruption: 0.25,
		ContentDivergence:  0.6,
		EdgeCoverage:       0.7,
		AvatarRate:         0.45,
		Communities:        maxInt(2, persons/60),
		MeanFriends:        8,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// World is the generated dataset plus the latent state experiments need:
// lexicons for the feature pipeline and the person roster for analysis.
type World struct {
	Dataset  *platform.Dataset
	Lexicons *Lexicons
	Persons  []*Person
	Config   Config
}

// attrMissingBase is the calibrated per-attribute missing probability.
// Gender is almost always present; the other five go missing frequently —
// Figure 2(a) reports ≥80% of users missing at least two of six attributes
// and only ~5% with all filled.
var attrMissingBase = map[platform.AttrName]float64{
	platform.AttrBirth:  0.52,
	platform.AttrBio:    0.48,
	platform.AttrTag:    0.55,
	platform.AttrEdu:    0.42,
	platform.AttrJob:    0.40,
	platform.AttrGender: 0.04,
	platform.AttrCity:   0.30,
	platform.AttrEmail:  0.65,
}

// The generator draws every random quantity from an independent seeded
// stream keyed by (purpose, index) rather than one sequential stream, so
// the expensive parts — latent persons and per-account rendering — fan
// out over the worker pool with byte-identical output at any worker
// count. The stream tags below keep unrelated draws from ever sharing a
// PRNG state.
const (
	streamPerson = iota + 1
	streamGraphIntra
	streamGraphInter
	streamTilt
	streamPerm
	streamAccount
	streamEdges
)

// subRNG derives a deterministic PRNG for one (tag, parts...) stream of
// the seeded generation, mixing the parts with splitmix64-style odd
// constants so nearby indices land far apart in seed space.
func subRNG(seed int64, tag uint64, parts ...uint64) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + tag*0xC2B2AE3D27D4EB4F
	for _, p := range parts {
		h ^= p + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xFF51AFD7ED558CCD
	}
	return rand.New(rand.NewSource(int64(h & 0x7FFFFFFFFFFFFFFF)))
}

// validate refuses a configuration Generate cannot honour.
func (cfg Config) validate() error {
	if cfg.Persons <= 0 {
		return fmt.Errorf("synth: Persons must be positive, got %d", cfg.Persons)
	}
	if len(cfg.Platforms) < 2 {
		return fmt.Errorf("synth: need at least 2 platforms, got %d", len(cfg.Platforms))
	}
	if !cfg.Span.Valid() {
		return fmt.Errorf("synth: invalid time span")
	}
	if !(cfg.MissingScale >= 0) { // also refuses NaN
		return fmt.Errorf("synth: MissingScale must be non-negative, got %v", cfg.MissingScale)
	}
	return nil
}

// Generate builds the world, fanning the per-person and per-account work
// over cfg.Workers (≤ 0 = all cores; identical world at any setting).
func Generate(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lx := BuildLexicons(cfg.Topics, cfg.WordsPerTopic)

	// 1. Latent persons, one seeded stream each.
	persons := make([]*Person, cfg.Persons)
	parallel.For(cfg.Workers, cfg.Persons, func(i int) {
		persons[i] = randPerson(subRNG(cfg.Seed, streamPerson, uint64(i)), i,
			cfg.Topics, len(cfg.Platforms), cfg.Communities)
	})

	// 2. Real-world friendship graph with planted communities.
	real := realWorldGraph(persons, cfg)

	// 3. Per-platform topic tilt (platform difference).
	tilts := make(map[platform.ID]linalg.Vector, len(cfg.Platforms))
	for pi, pid := range cfg.Platforms {
		tilts[pid] = dirichlet(subRNG(cfg.Seed, streamTilt, uint64(pi)), cfg.Topics, 0.5)
	}

	// 4. Project each platform (accounts fan out inside).
	ds := platform.NewDataset(cfg.Span)
	for pi, pid := range cfg.Platforms {
		if err := ds.AddPlatform(projectPlatform(pid, pi, persons, real, tilts[pid], lx, cfg)); err != nil {
			return nil, err
		}
	}
	return &World{Dataset: ds, Lexicons: lx, Persons: persons, Config: cfg}, nil
}

// realWorldGraph plants community structure: dense intra-community edges,
// sparse inter-community ones, with interaction-count weights. Each
// community draws from its own seeded stream (graph mutation itself stays
// sequential — the edge work is cheap next to account rendering).
func realWorldGraph(persons []*Person, cfg Config) *graph.Graph {
	n := len(persons)
	g := graph.New(n)
	byComm := make(map[int][]int)
	maxComm := 0
	for _, p := range persons {
		byComm[p.Community] = append(byComm[p.Community], p.ID)
		if p.Community > maxComm {
			maxComm = p.Community
		}
	}
	// Intra-community: aim for ~80% of MeanFriends within the community.
	// Communities are visited in id order; each has its own stream, so
	// the edge set never depends on visit interleaving.
	for comm := 0; comm <= maxComm; comm++ {
		members := byComm[comm]
		m := len(members)
		if m < 2 {
			continue
		}
		rng := subRNG(cfg.Seed, streamGraphIntra, uint64(comm))
		pIntra := cfg.MeanFriends * 0.8 / float64(m-1)
		if pIntra > 1 {
			pIntra = 1
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if rng.Float64() < pIntra {
					g.AddEdge(members[i], members[j], 1+rng.ExpFloat64()*5)
				}
			}
		}
	}
	// Inter-community: the remaining ~20%.
	rng := subRNG(cfg.Seed, streamGraphInter)
	interEdges := int(cfg.MeanFriends * 0.2 * float64(n) / 2)
	for k := 0; k < interEdges; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && persons[u].Community != persons[v].Community {
			g.AddEdge(u, v, 1+rng.ExpFloat64()*2)
		}
	}
	return g
}

// projectPlatform renders one platform's view of the world. Account
// rendering — the generation hot path — fans each person out on the
// worker pool with a per-(platform, person) seeded stream; the local-id
// permutation and the friendship projection keep their own platform-level
// streams, so the platform is identical at any worker count.
func projectPlatform(pid platform.ID, pIdx int, persons []*Person,
	real *graph.Graph, tilt linalg.Vector, lx *Lexicons, cfg Config) *platform.Platform {

	n := len(persons)
	lang := string(platform.LangOf(pid))
	corruption := cfg.UsernameCorruption
	if lang == "zh" {
		corruption *= 1.6 // Chinese platforms show heavier name divergence
	}

	// Shuffle person -> local id so identities never leak through indices.
	perm := subRNG(cfg.Seed, streamPerm, uint64(pIdx)).Perm(n)
	localOf := make([]int, n)
	for local, person := range perm {
		localOf[person] = local
	}

	p := &platform.Platform{ID: pid, Graph: graph.New(n), Accounts: make([]*platform.Account, n)}
	parallel.For(cfg.Workers, n, func(person int) {
		local := localOf[person]
		p.Accounts[local] = renderAccount(pid, pIdx, person, local, persons[person], tilt, lx, cfg, lang, corruption)
	})

	projectEdges(pIdx, localOf, real, cfg, p.Graph)
	return p
}

// renderAccount draws one person's account on one platform from its own
// (platform, person) seeded stream — the per-entity unit Generate fans
// out over, so accounts render identically in any order.
func renderAccount(pid platform.ID, pIdx, person, local int, pe *Person,
	tilt linalg.Vector, lx *Lexicons, cfg Config, lang string, corruption float64) *platform.Account {

	rng := subRNG(cfg.Seed, streamAccount, uint64(pIdx), uint64(person))
	acc := &platform.Account{
		Platform: pid,
		Local:    local,
		Person:   person,
		Profile:  renderProfile(rng, pe, lang, corruption, cfg),
	}
	activity := 1.0
	if pe.Primary == pIdx {
		activity = cfg.PrimaryBoost
	} else {
		activity = 0.7
	}
	acc.Posts = renderPosts(rng, pe, tilt, lx, cfg, activity)
	acc.Events = renderEvents(rng, pe, cfg, activity)
	return acc
}

// projectEdges materializes the real-world friendships on one platform
// into g (local ids) from the platform's sequential edge stream.
func projectEdges(pIdx int, localOf []int, real *graph.Graph, cfg Config, g *graph.Graph) {
	n := len(localOf)
	rng := subRNG(cfg.Seed, streamEdges, uint64(pIdx))
	for u := 0; u < n; u++ {
		for _, v := range real.Neighbors(u) {
			if u < v && rng.Float64() < cfg.EdgeCoverage {
				w := real.Weight(u, v) * (0.5 + rng.Float64())
				g.AddEdge(localOf[u], localOf[v], w)
			}
		}
	}
}

// renderProfile produces the account's profile with platform-dependent
// missingness, deception and username decoration.
func renderProfile(rng *rand.Rand, pe *Person, lang string, corruption float64, cfg Config) platform.Profile {
	attrs := make(map[platform.AttrName]string)
	trueVals := map[platform.AttrName]string{
		platform.AttrBirth:  fmt.Sprint(pe.Name.BirthYr),
		platform.AttrBio:    pe.Bio,
		platform.AttrTag:    pe.Tags,
		platform.AttrEdu:    pe.Edu,
		platform.AttrJob:    pe.Job,
		platform.AttrGender: pe.Gender,
		platform.AttrCity:   Cities[pe.City].Name,
		platform.AttrEmail:  pe.Email,
	}
	// Iterate in fixed attribute order: map iteration order would otherwise
	// desynchronize the PRNG stream and break same-seed determinism.
	for _, name := range platform.MatchAttrs {
		val := trueVals[name]
		miss := attrMissingBase[name] * cfg.MissingScale
		if rng.Float64() < miss {
			continue // attribute hidden
		}
		if pe.Deceptive && rng.Float64() < cfg.DeceptionRate {
			val = falsify(rng, name, val, pe)
		}
		attrs[name] = val
	}
	prof := platform.Profile{
		Username: usernameFor(pe.Name, lang, rng, corruption),
		Attrs:    attrs,
	}
	switch r := rng.Float64(); {
	case r < cfg.AvatarRate:
		prof.AvatarID = pe.FaceID // real face photo
	case r < cfg.AvatarRate+0.15:
		prof.AvatarID = uint64(1_000_000 + rng.Intn(10_000)) // stock/cartoon image
	default:
		// no avatar
	}
	return prof
}

// falsify produces a plausible false value (information veracity).
func falsify(rng *rand.Rand, name platform.AttrName, val string, pe *Person) string {
	switch name {
	case platform.AttrBirth:
		return fmt.Sprint(pe.Name.BirthYr + 1 + rng.Intn(8)) // age fudging
	case platform.AttrGender:
		if val == "m" {
			return "f"
		}
		return "m"
	case platform.AttrCity:
		return Cities[rng.Intn(len(Cities))].Name
	case platform.AttrJob:
		return Jobs[rng.Intn(len(Jobs))]
	case platform.AttrEdu:
		return Educations[rng.Intn(len(Educations))]
	default:
		return val
	}
}

// renderPosts samples the account's textual messages from the person's
// platform-tilted topic mixture, with genre keywords, sentiment keywords
// and the person's signature style words mixed in.
func renderPosts(rng *rand.Rand, pe *Person, tilt linalg.Vector, lx *Lexicons, cfg Config, activity float64) []platform.Post {
	nPosts := poisson(rng, float64(cfg.PostsMean)*activity)
	if nPosts == 0 {
		return nil
	}
	// Effective mixture: (1-d)·person + d·platform.
	mix := pe.TopicMix.Clone().Scale(1 - cfg.ContentDivergence)
	mix.AddScaled(cfg.ContentDivergence, tilt)
	// Some accounts never exhibit the person's signature wording on this
	// platform (platform-dependent register): without this the style
	// feature would be a perfect person identifier.
	useStyle := rng.Float64() < 0.7
	posts := make([]platform.Post, nPosts)
	span := cfg.Span.Duration()
	for i := range posts {
		t := cfg.Span.Start.Add(time.Duration(rng.Int63n(int64(span))))
		nTok := 8 + rng.Intn(12)
		toks := make([]string, 0, nTok)
		for j := 0; j < nTok; j++ {
			switch r := rng.Float64(); {
			case r < 0.50: // topic word
				t := sampleCat(rng, mix)
				toks = append(toks, lx.TopicWords[t][rng.Intn(len(lx.TopicWords[t]))])
			case r < 0.64: // genre keyword from preferred genres
				g := pe.GenrePrefs[rng.Intn(len(pe.GenrePrefs))]
				toks = append(toks, fmt.Sprintf("g%sk%d", topic.Genres[g], rng.Intn(keywordsPerGenre)))
			case r < 0.74: // sentiment keyword, biased to the person's family
				fam := topic.Sentiments[pe.SentimentBias]
				if rng.Float64() < 0.3 {
					fam = topic.Sentiments[rng.Intn(len(topic.Sentiments))]
				}
				toks = append(toks, fmt.Sprintf("s%sw%d", fam, rng.Intn(8)))
			case r < 0.78 && useStyle: // signature style word
				toks = append(toks, pe.StyleWords[rng.Intn(len(pe.StyleWords))])
			default: // filler
				toks = append(toks, lx.Filler[rng.Intn(len(lx.Filler))])
			}
		}
		posts[i] = platform.Post{Time: t, Text: strings.Join(toks, " ")}
	}
	return posts
}

// renderEvents samples the behavior trajectory: location check-ins near
// home (occasionally trips) and media posting with cross-platform sharing.
func renderEvents(rng *rand.Rand, pe *Person, cfg Config, activity float64) []temporal.Event {
	var evs []temporal.Event
	span := cfg.Span.Duration()
	// Some accounts simply never check in / never post media — missing
	// behavioral modality.
	if rng.Float64() > 0.25 {
		n := poisson(rng, float64(cfg.CheckinsMean)*activity)
		for i := 0; i < n; i++ {
			lat, lon := pe.HomeLat, pe.HomeLon
			if rng.Float64() < 0.1 { // trip
				c := Cities[rng.Intn(len(Cities))]
				lat, lon = c.Lat, c.Lon
			}
			evs = append(evs, temporal.Event{
				Time: cfg.Span.Start.Add(time.Duration(rng.Int63n(int64(span)))),
				Lat:  lat + rng.NormFloat64()*0.01,
				Lon:  lon + rng.NormFloat64()*0.01,
			})
		}
	}
	if rng.Float64() > 0.3 {
		n := poisson(rng, float64(cfg.MediaMean)*activity)
		for i := 0; i < n; i++ {
			var id uint64
			if rng.Float64() < 0.55 {
				// Shared pool item: the same media appears on the person's
				// other platforms at a different time (behavior asynchrony).
				id = pe.MediaPool[rng.Intn(len(pe.MediaPool))]
			} else {
				id = uint64(10_000_000 + rng.Intn(1_000_000)) // one-off content
			}
			evs = append(evs, temporal.Event{
				Time:    cfg.Span.Start.Add(time.Duration(rng.Int63n(int64(span)))),
				MediaID: id,
			})
		}
	}
	return evs
}

// poisson draws a Poisson(mean) variate (Knuth's method; mean is small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// sampleCat draws an index from the categorical distribution probs.
func sampleCat(rng *rand.Rand, probs linalg.Vector) int {
	u := rng.Float64() * probs.Sum()
	for i, p := range probs {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return len(probs) - 1
}
