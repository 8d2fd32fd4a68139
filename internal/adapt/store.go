package adapt

import (
	"fmt"
	"io"

	"tilgc/internal/jsonl"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
)

// Cross-run profile store: schema-versioned JSONL over internal/jsonl,
// read→write byte-identical like the trace sink. Record kinds, in stream
// order:
//
//	{"t":"header","schema":1,"profiles":N}
//	{"t":"profile","profile":i,"label":..,"workload":..,"sites":K}   per profile, then:
//	{"t":"site","profile":i,"site":..,"name":..,"surv_words":..,...} sorted by site id
//
// All quantities are integers (words/bytes/counts) — no floats, no
// wall-clock values, no map-ordered output — so a store written by one
// sweep byte-compares equal at any parallelism and across machines.

// StoreSchemaVersion is the profile-store format version. Bump when the
// record shapes change incompatibly; readers reject other versions
// outright rather than decoding garbage.
const StoreSchemaVersion = 1

// SiteSeed is one site's stored statistics: the engine's decayed survival
// state plus the end-of-run pretenuring verdict. The store's site record
// embeds it, so the tags are wire names.
type SiteSeed struct {
	Site       obj.SiteID `json:"site"`
	Name       string     `json:"name,omitempty"`
	SurvWords  uint64     `json:"surv_words"`
	DeadWords  uint64     `json:"dead_words"`
	AgeBytes   uint64     `json:"age_bytes"`
	AgeSamples uint64     `json:"age_samples"`
	PretPlaced uint64     `json:"pret_placed"`
	PretDied   uint64     `json:"pret_died"`
	Pretenured bool       `json:"pretenured"`
}

// RunProfile is one run's stored advisor state, keyed by workload name for
// warm-start lookup. Sites are sorted by id.
type RunProfile struct {
	Label    string
	Workload string
	Sites    []SiteSeed
}

// Store is an ordered collection of run profiles.
type Store struct {
	Profiles []*RunProfile
}

// Find returns the last profile stored for the workload, or nil. Last
// wins so appending a fresh sweep to an existing store supersedes it.
func (s *Store) Find(workload string) *RunProfile {
	if s == nil {
		return nil
	}
	for i := len(s.Profiles) - 1; i >= 0; i-- {
		if s.Profiles[i].Workload == workload {
			return s.Profiles[i]
		}
	}
	return nil
}

type storeHeader struct {
	T        string `json:"t"`
	Schema   int    `json:"schema"`
	Profiles int    `json:"profiles"`
}

func (r *storeHeader) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("schema", &r.Schema)
	c.Int("profiles", &r.Profiles)
}

type storeProfile struct {
	T        string `json:"t"`
	Profile  int    `json:"profile"`
	Label    string `json:"label"`
	Workload string `json:"workload"`
	Sites    int    `json:"sites"`
}

func (r *storeProfile) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("profile", &r.Profile)
	c.Str("label", &r.Label)
	c.Str("workload", &r.Workload)
	c.Int("sites", &r.Sites)
}

type storeSite struct {
	T       string `json:"t"`
	Profile int    `json:"profile"`
	SiteSeed
}

func (r *storeSite) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("profile", &r.Profile)
	s := &r.SiteSeed
	c.Uint16("site", (*uint16)(&s.Site))
	c.StrOmit("name", &s.Name)
	c.Uint("surv_words", &s.SurvWords)
	c.Uint("dead_words", &s.DeadWords)
	c.Uint("age_bytes", &s.AgeBytes)
	c.Uint("age_samples", &s.AgeSamples)
	c.Uint("pret_placed", &s.PretPlaced)
	c.Uint("pret_died", &s.PretDied)
	c.Bool("pretenured", &s.Pretenured)
}

// storeRecords holds one of each record, reused line to line by the
// reader and the writer.
type storeRecords struct {
	header  storeHeader
	profile storeProfile
	site    storeSite
}

// WriteJSONL writes the store as schema-versioned JSONL.
func (s *Store) WriteJSONL(w io.Writer) error {
	jw := jsonl.NewWriter(w)
	r := new(storeRecords)
	r.header = storeHeader{T: "header", Schema: StoreSchemaVersion, Profiles: len(s.Profiles)}
	jw.Write(&r.header)
	for i, p := range s.Profiles {
		r.profile = storeProfile{T: "profile", Profile: i, Label: p.Label, Workload: p.Workload, Sites: len(p.Sites)}
		jw.Write(&r.profile)
		for _, seed := range p.Sites {
			r.site = storeSite{T: "site", Profile: i, SiteSeed: seed}
			jw.Write(&r.site)
		}
	}
	return jw.Flush()
}

// storeFormat is the store stream's structure; each profile declares its
// site count.
var storeFormat = jsonl.Format{Pkg: "adapt: store", Version: StoreSchemaVersion,
	Header: "header", Parent: "profile", Index: "profile"}

// ReadJSONL parses a profile store under the strict-record contract of
// internal/jsonl, rejecting in addition sites out of ascending order.
func ReadJSONL(r io.Reader) (*Store, error) {
	var sr storeReader
	if err := storeFormat.Read(r, &sr); err != nil {
		return nil, err
	}
	return sr.s, nil
}

// storeReader is the store schema's jsonl.Handler.
type storeReader struct {
	storeRecords
	s   *Store
	cur *RunProfile
}

func (sr *storeReader) Record(t string) jsonl.Fields {
	switch t {
	case "header":
		return &sr.header
	case "profile":
		return &sr.profile
	case "site":
		return &sr.site
	}
	return nil
}

func (sr *storeReader) Header(rec jsonl.Fields) (int, int, error) {
	h := rec.(*storeHeader)
	sr.s = &Store{}
	return h.Schema, h.Profiles, nil
}

func (sr *storeReader) Parent(rec jsonl.Fields) (int, error) {
	rp := rec.(*storeProfile)
	sr.cur = &RunProfile{Label: rp.Label, Workload: rp.Workload}
	sr.s.Profiles = append(sr.s.Profiles, sr.cur)
	return rp.Sites, nil
}

func (sr *storeReader) Child(rec jsonl.Fields) error {
	rs := rec.(*storeSite)
	cur := sr.cur
	if n := len(cur.Sites); n > 0 && cur.Sites[n-1].Site >= rs.Site {
		return fmt.Errorf("site %d out of order", rs.Site)
	}
	cur.Sites = append(cur.Sites, rs.SiteSeed)
	return nil
}

// FromProfile converts an offline heap profile (internal/prof) into a
// storable run profile, so existing train-run profiles can warm-start the
// advisor. Word counts are reconstructed from per-site averages (the
// offline profiler tracks object counts, not per-fate words); the
// pretenured verdict applies the paper's rule — old% at least cutoffPct
// with at least minObjects allocations. Integer arithmetic only, so the
// conversion is deterministic.
func FromProfile(p *prof.Profiler, label, workload string, cutoffPct float64, minObjects uint64) *RunProfile {
	rp := &RunProfile{Label: label, Workload: workload}
	sites := p.Sites()
	// p.Sites sorts by descending allocation; the store wants ascending id.
	byID := make([]*prof.SiteStats, len(sites))
	copy(byID, sites)
	for i := 1; i < len(byID); i++ {
		for j := i; j > 0 && byID[j-1].Site > byID[j].Site; j-- {
			byID[j-1], byID[j] = byID[j], byID[j-1]
		}
	}
	for _, s := range byID {
		if s.AllocCount == 0 {
			continue // death-only site: no survival evidence to seed
		}
		avgWords := s.AllocBytes / mem.WordSize / s.AllocCount
		if avgWords == 0 {
			avgWords = 1
		}
		seed := SiteSeed{
			Site:      s.Site,
			Name:      s.Name,
			SurvWords: s.SurvivedFirst * avgWords,
			DeadWords: (s.AllocCount - s.SurvivedFirst) * avgWords,
		}
		seed.Pretenured = s.AllocCount >= minObjects && s.OldPct() >= cutoffPct
		rp.Sites = append(rp.Sites, seed)
	}
	return rp
}
