package pipeline

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/topic"
)

// ArtifactVersion is the current artifact wire version. Readers reject any
// other value outright: the artifact carries raw dual coefficients, and a
// silent cross-version reinterpretation would serve wrong scores.
const ArtifactVersion = 1

// Artifact is a persisted trained model: everything a serving process
// needs to answer score/link/top-k queries against a world file without
// retraining. It splits into three parts —
//
//   - the system recipe (feature config, lexicons, labeled-pair recipe)
//     that rebuilds the identical feature pipeline over the world,
//   - the model parts (kernel kind + learned bandwidth, candidate feature
//     vectors, dual coefficients, bias, diagnostics), carried verbatim so
//     restored scores are bit-exact,
//   - the serving recipe (platform pairs + blocking rules) that rebuilds
//     the per-A-side candidate indexes top-k queries run against.
//
// All floats survive the JSON round trip exactly: Go encodes float64 with
// the shortest decimal that uniquely identifies the bits.
type Artifact struct {
	Version int `json:"version"`

	// System recipe.
	FeatCfg      features.Config          `json:"feat_cfg"`
	Genre        map[string]string        `json:"genre_lexicon"`
	Sentiment    map[string]topic.AVPoint `json:"sentiment_lexicon"`
	LabelPA      platform.ID              `json:"label_pa"`
	LabelPB      platform.ID              `json:"label_pb"`
	LabelPersons []int                    `json:"label_persons"`

	// Trained model.
	Model core.ModelParts `json:"model"`

	// Serving recipe.
	Pairs [][2]platform.ID `json:"pairs"`
	Rules blocking.Rules   `json:"rules"`

	// WorldPersons and WorldFingerprint identify the training world, so
	// Restore can reject a different world file instead of silently
	// serving wrong scores (model coefficients are only meaningful over
	// the accounts they were trained on).
	WorldPersons     int    `json:"world_persons"`
	WorldFingerprint string `json:"world_fingerprint"`
}

// worldFingerprint is a cheap content fingerprint of a dataset: platform
// ids, account counts, and every account's (person, username) pair, in
// deterministic order. It is O(accounts) to compute and catches the
// realistic mismatches — regenerated, reseeded or resized worlds — while
// staying independent of JSON formatting.
func worldFingerprint(ds *platform.Dataset) string {
	h := fnv.New64a()
	ids := make([]platform.ID, 0, len(ds.Platforms))
	for id := range ds.Platforms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := ds.Platforms[id]
		fmt.Fprintf(h, "%s:%d;", id, len(p.Accounts))
		for _, acc := range p.Accounts {
			fmt.Fprintf(h, "%d,%s|", acc.Person, acc.Profile.Username)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Artifact snapshots the fitted pipeline prefix: the system recipe from
// the Systemize stage, the model parts from Fit, and the pair/rule recipe
// from Block.
func (f *FitState) Artifact() (*Artifact, error) {
	parts, err := f.Linker.Model().Parts()
	if err != nil {
		return nil, err
	}
	o := f.SystemState.Opts
	return &Artifact{
		Version:      ArtifactVersion,
		FeatCfg:      o.FeatCfg,
		Genre:        o.Lexicons.Genre,
		Sentiment:    o.Lexicons.Sentiment,
		LabelPA:      o.LabelPA,
		LabelPB:      o.LabelPB,
		LabelPersons: o.LabelPersons,
		Model:        parts,
		Pairs:        f.BlockState.Opts.Pairs,
		Rules:        f.BlockState.Opts.Rules,

		WorldPersons:     f.DS.NumPersons(),
		WorldFingerprint: worldFingerprint(f.DS),
	}, nil
}

// WriteArtifact encodes the artifact as JSON.
func WriteArtifact(w io.Writer, a *Artifact) error {
	if a.Version != ArtifactVersion {
		return fmt.Errorf("pipeline: refusing to write artifact version %d (current %d)", a.Version, ArtifactVersion)
	}
	return json.NewEncoder(w).Encode(a)
}

// SaveArtifact writes the artifact to a file.
func SaveArtifact(path string, a *Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteArtifact(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadArtifact decodes an artifact and rejects version mismatches.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("pipeline: decode artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("pipeline: artifact version %d, this build reads version %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}

// LoadArtifact reads an artifact from a file.
func LoadArtifact(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadArtifact(f)
}

// SystemizeOpts returns the artifact's system recipe.
func (a *Artifact) SystemizeOpts() SystemizeOpts {
	return SystemizeOpts{
		LabelPA:      a.LabelPA,
		LabelPB:      a.LabelPB,
		LabelPersons: a.LabelPersons,
		Lexicons:     features.Lexicons{Genre: a.Genre, Sentiment: a.Sentiment},
		FeatCfg:      a.FeatCfg,
	}
}

// Restore rebuilds the feature system and the trained model over a world
// dataset — the serving-side resume of the Load → Systemize → Fit prefix.
// With the same world file the artifact was trained from, the restored
// model's Score/Link are bit-identical to the in-memory original. A world
// that doesn't match the artifact's fingerprint is rejected: the model's
// coefficients are meaningless over other accounts, and without the check
// a regenerated world would silently serve wrong scores.
func (a *Artifact) Restore(ds *platform.Dataset) (*SystemState, *core.Model, error) {
	if a.WorldFingerprint != "" {
		if got := worldFingerprint(ds); got != a.WorldFingerprint {
			return nil, nil, fmt.Errorf("pipeline: world does not match the artifact's training world (fingerprint %s, artifact %s, %d vs %d persons) — pass the world file the model was trained on",
				got, a.WorldFingerprint, ds.NumPersons(), a.WorldPersons)
		}
	}
	st, err := Systemize(ds, a.SystemizeOpts())
	if err != nil {
		return nil, nil, err
	}
	m, err := core.ModelFromParts(st.Sys.LazyStore, a.Model)
	if err != nil {
		return nil, nil, err
	}
	return st, m, nil
}
