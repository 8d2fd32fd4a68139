package adapt

import (
	"bytes"
	"strings"
	"testing"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
)

func testStore() *Store {
	return &Store{Profiles: []*RunProfile{
		{Label: "PhaseShift/generational+adapt", Workload: "PhaseShift", Sites: []SiteSeed{
			{Site: 1200, Name: "node", SurvWords: 900, DeadWords: 100,
				AgeBytes: 4096, AgeSamples: 12, Pretenured: true},
			{Site: 1201, SurvWords: 10, DeadWords: 990, PretPlaced: 64, PretDied: 32},
		}},
		{Label: "Simple/generational+adapt", Workload: "Simple", Sites: []SiteSeed{
			{Site: 1100, Name: "row", SurvWords: 5000, DeadWords: 20, Pretenured: true},
		}},
	}}
}

func TestStoreRoundTripByteIdentical(t *testing.T) {
	s := testStore()
	var a bytes.Buffer
	if err := s.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	read, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := read.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("read→write not byte-identical:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestStoreSchemaMismatchError(t *testing.T) {
	in := `{"t":"header","schema":99,"profiles":0}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("schema-99 store accepted")
	}
	if !strings.Contains(err.Error(), "schema 99") || !strings.Contains(err.Error(), "schema 1") {
		t.Fatalf("unhelpful schema error: %v", err)
	}
}

func TestStoreRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no header":        `{"t":"profile","profile":0,"label":"x","workload":"y","sites":0}`,
		"unknown type":     "{\"t\":\"header\",\"schema\":1,\"profiles\":0}\n{\"t\":\"bogus\"}",
		"unknown field":    "{\"t\":\"header\",\"schema\":1,\"profiles\":0,\"extra\":1}",
		"profile disorder": "{\"t\":\"header\",\"schema\":1,\"profiles\":2}\n{\"t\":\"profile\",\"profile\":1,\"label\":\"x\",\"workload\":\"y\",\"sites\":0}",
		"orphan site":      "{\"t\":\"header\",\"schema\":1,\"profiles\":0}\n{\"t\":\"site\",\"profile\":0,\"site\":1,\"surv_words\":0,\"dead_words\":0,\"age_bytes\":0,\"age_samples\":0,\"pret_placed\":0,\"pret_died\":0,\"pretenured\":false}",
		"empty":            "",
		"profile count": "{\"t\":\"header\",\"schema\":1,\"profiles\":2}\n" +
			"{\"t\":\"profile\",\"profile\":0,\"label\":\"x\",\"workload\":\"y\",\"sites\":0}",
		"site count": "{\"t\":\"header\",\"schema\":1,\"profiles\":1}\n" +
			"{\"t\":\"profile\",\"profile\":0,\"label\":\"x\",\"workload\":\"y\",\"sites\":2}\n" +
			"{\"t\":\"site\",\"profile\":0,\"site\":5,\"surv_words\":0,\"dead_words\":0,\"age_bytes\":0,\"age_samples\":0,\"pret_placed\":0,\"pret_died\":0,\"pretenured\":false}",
		"site disorder": "{\"t\":\"header\",\"schema\":1,\"profiles\":1}\n" +
			"{\"t\":\"profile\",\"profile\":0,\"label\":\"x\",\"workload\":\"y\",\"sites\":2}\n" +
			"{\"t\":\"site\",\"profile\":0,\"site\":5,\"surv_words\":0,\"dead_words\":0,\"age_bytes\":0,\"age_samples\":0,\"pret_placed\":0,\"pret_died\":0,\"pretenured\":false}\n" +
			"{\"t\":\"site\",\"profile\":0,\"site\":3,\"surv_words\":0,\"dead_words\":0,\"age_bytes\":0,\"age_samples\":0,\"pret_placed\":0,\"pret_died\":0,\"pretenured\":false}",
		// The strict reader rejects what encoding/json let through.
		"duplicate key": withSite(`{"t":"site","profile":0,"site":5,"surv_words":1,"surv_words":2}`),
		"folded key":    withSite(`{"t":"site","profile":0,"site":5,"SURV_WORDS":1}`),
		"folded tag":    withSite(`{"T":"site","profile":0,"site":5}`),
		"null integer":  withSite(`{"t":"site","profile":0,"site":5,"dead_words":null}`),
	}
	if _, err := ReadJSONL(strings.NewReader(withSite(`{"t":"site","profile":0,"site":5}`))); err != nil {
		t.Fatalf("the valid base of the cases below is rejected: %v", err)
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// withSite returns a one-profile store whose one site record is line.
func withSite(line string) string {
	return "{\"t\":\"header\",\"schema\":1,\"profiles\":1}\n" +
		"{\"t\":\"profile\",\"profile\":0,\"label\":\"x\",\"workload\":\"y\",\"sites\":1}\n" + line + "\n"
}

func TestStoreFindLastWins(t *testing.T) {
	s := testStore()
	s.Profiles = append(s.Profiles, &RunProfile{Label: "newer", Workload: "PhaseShift"})
	if got := s.Find("PhaseShift"); got == nil || got.Label != "newer" {
		t.Fatalf("Find = %+v, want the newer profile", got)
	}
	if s.Find("nope") != nil {
		t.Fatal("Find invented a profile")
	}
	var nilStore *Store
	if nilStore.Find("PhaseShift") != nil {
		t.Fatal("nil store found a profile")
	}
}

func TestFromProfile(t *testing.T) {
	p := prof.New(map[obj.SiteID]string{7: "keeper", 9: "churner"})
	// Site 7: 10 four-word records, 9 survive their first collection.
	for i := 0; i < 10; i++ {
		a := mem.MakeAddr(1, uint64(1+i*8))
		p.OnAlloc(a, 7, obj.Record, 4, false)
		if i != 0 {
			p.OnMove(a, mem.MakeAddr(2, uint64(1+i*8)), false)
		}
	}
	p.OnGCEnd()
	// Site 9: 10 records, none survive.
	for i := 0; i < 10; i++ {
		p.OnAlloc(mem.MakeAddr(3, uint64(1+i*8)), 9, obj.Record, 4, false)
	}
	p.OnSpaceCondemned(1)
	p.OnSpaceCondemned(3)
	p.OnGCEnd()
	p.Finalize()

	rp := FromProfile(p, "train", "X", 80, 5)
	if rp.Label != "train" || rp.Workload != "X" {
		t.Fatalf("metadata: %+v", rp)
	}
	if len(rp.Sites) != 2 {
		t.Fatalf("sites = %+v", rp.Sites)
	}
	if rp.Sites[0].Site != 7 || rp.Sites[1].Site != 9 {
		t.Fatalf("sites not ascending: %+v", rp.Sites)
	}
	keeper, churner := rp.Sites[0], rp.Sites[1]
	if !keeper.Pretenured || keeper.SurvWords != 9*4 || keeper.DeadWords != 1*4 {
		t.Fatalf("keeper seed: %+v", keeper)
	}
	if churner.Pretenured || churner.SurvWords != 0 || churner.DeadWords != 10*4 {
		t.Fatalf("churner seed: %+v", churner)
	}

	// The conversion must seed an engine that pretenures the keeper from
	// the first allocation.
	e := newTestEngine(Params{})
	e.WarmStart(rp)
	if !e.ShouldPretenure(7) || e.ShouldPretenure(9) {
		t.Fatal("warm start from converted profile wrong")
	}
}
