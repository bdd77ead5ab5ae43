// Package platform defines the data model shared by the whole system: the
// seven social network platforms of the paper's evaluation, accounts,
// profiles, posts, behavior-trajectory events, and the multi-platform
// Dataset with its ground-truth person↔account mapping.
package platform

import (
	"fmt"
	"time"

	"hydra/internal/graph"
	"hydra/internal/temporal"
)

// ID names a social network platform.
type ID string

// The seven platforms of the paper's two datasets (Section 7.1).
const (
	SinaWeibo    ID = "sina_weibo"
	TencentWeibo ID = "tencent_weibo"
	Renren       ID = "renren"
	Douban       ID = "douban"
	Kaixin       ID = "kaixin"
	Twitter      ID = "twitter"
	Facebook     ID = "facebook"
)

// ChinesePlatforms is the "Chinese" dataset: five platforms.
var ChinesePlatforms = []ID{SinaWeibo, TencentWeibo, Renren, Douban, Kaixin}

// EnglishPlatforms is the "English" dataset: two platforms.
var EnglishPlatforms = []ID{Twitter, Facebook}

// AllPlatforms is the union used in the Figure-13 cross-cultural experiment.
var AllPlatforms = []ID{SinaWeibo, TencentWeibo, Renren, Douban, Kaixin, Twitter, Facebook}

// Set is one dataset of the evaluation: the platforms a world is generated
// on and the platform pairs linked across them.
type Set struct {
	Name      string
	Platforms []ID
	Pairs     [][2]ID
}

// Sets are the datasets cmd/hydra, hydra-gen and the §7 figures run on, in
// this order: English, Chinese, and the cross-cultural union. The paper
// trains across all five Chinese platforms; two representative pairs keep
// the laptop-scale runtime bounded while preserving the multi-pair
// structure (Eqn 14's block-diagonal M). The union's pairs link Chinese to
// English accounts (Figure 13).
var Sets = []Set{
	{"english", EnglishPlatforms, [][2]ID{{Twitter, Facebook}}},
	{"chinese", ChinesePlatforms, [][2]ID{{SinaWeibo, TencentWeibo}, {Renren, Kaixin}}},
	{"all", AllPlatforms, [][2]ID{{SinaWeibo, Twitter}, {Renren, Facebook}}},
}

// SetNamed returns the dataset called name.
func SetNamed(name string) (Set, error) {
	for _, s := range Sets {
		if s.Name == name {
			return s, nil
		}
	}
	return Set{}, fmt.Errorf("unknown dataset %q (want english, chinese or all)", name)
}

// Lang is the dominant language of a platform.
type Lang string

// Supported platform languages.
const (
	Chinese Lang = "zh"
	English Lang = "en"
)

// LangOf returns the dominant language of platform id.
func LangOf(id ID) Lang {
	switch id {
	case Twitter, Facebook:
		return English
	default:
		return Chinese
	}
}

// AttrName names one of the six profile attributes the paper's Figure 2(a)
// tracks for missingness, plus the auxiliary identity attributes used by
// the rule-based filtering.
type AttrName string

// The profile attributes. Birth/Bio/Tag/Edu/Job/Gender are the "six most
// popular" attributes of Figure 2(a); City and Email additionally feed the
// attribute-importance model of Section 5.1.
const (
	AttrBirth  AttrName = "birth"
	AttrBio    AttrName = "bio"
	AttrTag    AttrName = "tag"
	AttrEdu    AttrName = "edu"
	AttrJob    AttrName = "job"
	AttrGender AttrName = "gender"
	AttrCity   AttrName = "city"
	AttrEmail  AttrName = "email"
)

// CoreAttrs are the six attributes of Figure 2(a), in display order.
var CoreAttrs = []AttrName{AttrBirth, AttrBio, AttrTag, AttrEdu, AttrJob, AttrGender}

// MatchAttrs are all attributes participating in the attribute-importance
// model (Eqn 3), in feature order.
var MatchAttrs = []AttrName{AttrBirth, AttrBio, AttrTag, AttrEdu, AttrJob, AttrGender, AttrCity, AttrEmail}

// Profile holds the structured user attributes of one account. An empty
// string means the attribute is missing (hidden or never filled) — the
// missing-information regime of Figure 2(a).
type Profile struct {
	Username string
	Attrs    map[AttrName]string
	// AvatarID identifies the profile image; 0 means no image. Two
	// accounts carrying avatars derived from the same face produce a
	// positive face-classifier score (Figure 4 pipeline).
	AvatarID uint64
}

// Attr returns the attribute value and whether it is present.
func (p *Profile) Attr(name AttrName) (string, bool) {
	v, ok := p.Attrs[name]
	if !ok || v == "" {
		return "", false
	}
	return v, true
}

// MissingSet returns the sorted names of missing core attributes.
func (p *Profile) MissingSet() []AttrName {
	var out []AttrName
	for _, a := range CoreAttrs {
		if _, ok := p.Attr(a); !ok {
			out = append(out, a)
		}
	}
	return out
}

// Post is one user-generated textual message.
type Post struct {
	Time time.Time
	Text string
}

// Account is one user account on one platform.
type Account struct {
	Platform ID
	// Local is the account's index within its platform (graph node id).
	Local int
	// Person is the ground-truth natural-person id. It exists because the
	// synthetic generator plays the role of the paper's national-ID data
	// provider; the linkage pipeline must only read it through
	// Dataset.SamePerson during training-label construction and evaluation.
	Person  int
	Profile Profile
	Posts   []Post
	// Events is the behavior trajectory: location check-ins and media
	// posting/sharing actions, both timestamped.
	Events []temporal.Event
}

// Platform is one social network: its accounts and interaction graph.
type Platform struct {
	ID       ID
	Accounts []*Account
	// Graph is the interaction graph over account Local ids: edge weights
	// count pairwise interactions (comments, reposts, mentions).
	Graph *graph.Graph
}

// NumAccounts returns the number of accounts.
func (p *Platform) NumAccounts() int { return len(p.Accounts) }

// Account returns the account with the given local id.
func (p *Platform) Account(local int) *Account {
	if local < 0 || local >= len(p.Accounts) {
		panic(fmt.Sprintf("platform: local id %d out of range on %s", local, p.ID))
	}
	return p.Accounts[local]
}

// Dataset is a multi-platform world with ground truth.
type Dataset struct {
	Platforms map[ID]*Platform
	// PersonAccounts maps person id -> platform -> local account id.
	PersonAccounts map[int]map[ID]int
	// Span is the observation window shared by all behavior models.
	Span temporal.Range
}

// NewDataset returns an empty dataset with the given observation window.
func NewDataset(span temporal.Range) *Dataset {
	return &Dataset{
		Platforms:      make(map[ID]*Platform),
		PersonAccounts: make(map[int]map[ID]int),
		Span:           span,
	}
}

// AddPlatform registers a platform (must not already exist).
func (d *Dataset) AddPlatform(p *Platform) error {
	if _, dup := d.Platforms[p.ID]; dup {
		return fmt.Errorf("platform: duplicate platform %s", p.ID)
	}
	d.Platforms[p.ID] = p
	for _, acc := range p.Accounts {
		m, ok := d.PersonAccounts[acc.Person]
		if !ok {
			m = make(map[ID]int)
			d.PersonAccounts[acc.Person] = m
		}
		m[p.ID] = acc.Local
	}
	return nil
}

// Platform returns the platform with the given id, or an error.
func (d *Dataset) Platform(id ID) (*Platform, error) {
	p, ok := d.Platforms[id]
	if !ok {
		return nil, fmt.Errorf("platform: no platform %s in dataset", id)
	}
	return p, nil
}

// SamePerson reports whether account a on platform pa and account b on
// platform pb belong to the same natural person (the oracle φ of the SIL
// definition). This is the only ground-truth access point.
func (d *Dataset) SamePerson(pa ID, a int, pb ID, b int) bool {
	return d.Platforms[pa].Account(a).Person == d.Platforms[pb].Account(b).Person
}

// NumPersons returns the number of distinct natural persons.
func (d *Dataset) NumPersons() int { return len(d.PersonAccounts) }

// AccountOf returns the local account id of person on platform id, with
// ok=false when the person has no account there.
func (d *Dataset) AccountOf(person int, id ID) (int, bool) {
	m, ok := d.PersonAccounts[person]
	if !ok {
		return 0, false
	}
	local, ok := m[id]
	return local, ok
}
