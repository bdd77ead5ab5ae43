// The view/pipeline codec is the feature layer's half of self-contained
// serving bundles: it reduces a trained Pipeline and its AccountViews to
// plain exported data that marshals to JSON losslessly (Go encodes
// float64 with the shortest decimal that uniquely identifies the bits)
// and rebuilds a query-only pipeline plus views that produce bit-
// identical Pair vectors — without the dataset, the LDA model or the
// vocabulary, none of which Pair reads.

package features

import (
	"fmt"
	"time"

	"hydra/internal/attr"
	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/vision"
)

// PipelineParts is the serializable state of a trained Pipeline: exactly
// what Pair needs at query time. The LDA/vocabulary/lexicon models are
// deliberately excluded — they are view-construction machinery, and a
// snapshot store never builds views.
type PipelineParts struct {
	Cfg        Config           `json:"cfg"`
	Span       temporal.Range   `json:"span"`
	Importance *attr.Importance `json:"importance"`
}

// Parts extracts the pipeline's serializable query-time state.
func (p *Pipeline) Parts() PipelineParts {
	return PipelineParts{Cfg: p.cfg, Span: p.span, Importance: p.importance}
}

// PipelineFromParts rebuilds a query-only pipeline: Pair, Dim,
// FeatureGroups, Importance and Explain behave exactly as on the
// trained original, but BuildView panics — a restored pipeline pairs
// snapshotted views, it does not construct new ones.
func PipelineFromParts(parts PipelineParts) (*Pipeline, error) {
	cfg := parts.Cfg
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if parts.Importance == nil {
		return nil, fmt.Errorf("features: pipeline parts have no attribute-importance model")
	}
	if !parts.Span.Valid() {
		return nil, fmt.Errorf("features: pipeline parts have an invalid observation span")
	}
	p := &Pipeline{
		cfg:        cfg,
		span:       parts.Span,
		importance: parts.Importance,
		faces:      vision.NewMatcher(cfg.Seed),
		sensors:    pairSensors(cfg),
	}
	p.topicSim = topicSimFor(cfg)
	p.buildNames()
	return p, nil
}

// ViewParts is the serializable per-account state: the profile fields and
// precomputed distributions Pair reads, and nothing else. Posts (raw
// text) and the ground-truth person id deliberately never enter a
// snapshot — a serving bundle carries behavior *summaries*, not behavior
// data or labels.
type ViewParts struct {
	Username   string                       `json:"username"`
	Attrs      map[platform.AttrName]string `json:"attrs,omitempty"`
	AvatarID   uint64                       `json:"avatar_id,omitempty"`
	Events     []temporal.Event             `json:"events,omitempty"`
	PostTimes  []time.Time                  `json:"post_times,omitempty"`
	TopicDists []linalg.Vector              `json:"topic_dists,omitempty"`
	GenreDists []linalg.Vector              `json:"genre_dists,omitempty"`
	SentDists  []linalg.Vector              `json:"sent_dists,omitempty"`
	Unique     []string                     `json:"unique,omitempty"`
	Embedding  linalg.Vector                `json:"embedding"`
}

// SnapshotView reduces one built view to its serializable parts. The
// parts share the view's slices; treat both as read-only afterwards.
func SnapshotView(v *AccountView) ViewParts {
	return ViewParts{
		Username:   v.Acc.Profile.Username,
		Attrs:      v.Acc.Profile.Attrs,
		AvatarID:   v.Acc.Profile.AvatarID,
		Events:     v.Acc.Events,
		PostTimes:  v.PostTimes,
		TopicDists: v.TopicDists,
		GenreDists: v.GenreDists,
		SentDists:  v.SentDists,
		Unique:     v.Unique,
		Embedding:  v.Embedding,
	}
}

// RestoreView rebuilds an AccountView from its parts. The reconstructed
// account carries only what Pair reads (profile and events); its Person
// is -1 because snapshots never ship ground truth.
func RestoreView(parts ViewParts, id platform.ID, local int) *AccountView {
	attrs := parts.Attrs
	if attrs == nil {
		attrs = make(map[platform.AttrName]string)
	}
	return &AccountView{
		Acc: &platform.Account{
			Platform: id,
			Local:    local,
			Person:   -1,
			Profile: platform.Profile{
				Username: parts.Username,
				Attrs:    attrs,
				AvatarID: parts.AvatarID,
			},
			Events: parts.Events,
		},
		PostTimes:  parts.PostTimes,
		TopicDists: parts.TopicDists,
		GenreDists: parts.GenreDists,
		SentDists:  parts.SentDists,
		Unique:     parts.Unique,
		Embedding:  parts.Embedding,
	}
}
