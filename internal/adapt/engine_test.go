package adapt

import (
	"reflect"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/trace"
)

func newTestEngine(p Params) *Engine {
	return New(costmodel.NewMeter(), nil, p)
}

func TestPromotionRequiresMassAndCutoff(t *testing.T) {
	e := newTestEngine(Params{})

	// Epoch 1: plenty of survival but below the sample-mass floor.
	e.ObserveSurvive(1, 100, 0)
	e.ObserveGCEnd()
	if e.ShouldPretenure(1) {
		t.Fatal("promoted below MinSampleWords")
	}

	// Epoch 2: mass now sufficient, survival 100%.
	e.ObserveSurvive(1, 200, 0)
	e.ObserveGCEnd()
	if !e.ShouldPretenure(1) {
		t.Fatal("high-survival site with sample mass not promoted")
	}

	snap := e.Snapshot()
	if snap.Promotions != 1 || len(snap.Decisions) != 1 {
		t.Fatalf("promotions=%d decisions=%d", snap.Promotions, len(snap.Decisions))
	}
	d := snap.Decisions[0]
	if d.Verb != trace.AdaptPromote || d.Site != 1 || d.Epoch != 2 {
		t.Fatalf("decision = %+v", d)
	}
	if d.SurvivalPPM < 800_000 {
		t.Fatalf("survival ppm = %d", d.SurvivalPPM)
	}
}

func TestLowSurvivalNeverPromotes(t *testing.T) {
	e := newTestEngine(Params{})
	for i := 0; i < 10; i++ {
		e.ObserveSurvive(1, 50, 0)
		e.ObserveDeath(1, 50, prof.DeathYoung) // 50% survival
		e.ObserveGCEnd()
	}
	if e.ShouldPretenure(1) {
		t.Fatal("half-survival site promoted at an 80 percent cutoff")
	}
	if n := len(e.Snapshot().Decisions); n != 0 {
		t.Fatalf("decisions = %d, want 0", n)
	}
}

// promoteSite drives site 1 over the promotion threshold.
func promoteSite(e *Engine) {
	e.ObserveSurvive(1, 400, 0)
	e.ObserveGCEnd()
	if !e.ShouldPretenure(1) {
		panic("setup: site did not promote")
	}
}

func TestDemotionOnTenuredGarbage(t *testing.T) {
	e := newTestEngine(Params{})
	promoteSite(e)

	// The promoted site's placements turn out to be garbage: 300 of the
	// 400 pretenured words die in the old generation.
	e.ObserveAlloc(1, 400, true)
	e.ObserveDeath(1, 300, prof.DeathPretenured)
	e.ObserveGCEnd()
	if e.ShouldPretenure(1) {
		t.Fatal("mistrained site not demoted")
	}

	snap := e.Snapshot()
	if snap.Demotions != 1 {
		t.Fatalf("demotions = %d", snap.Demotions)
	}
	d := snap.Decisions[len(snap.Decisions)-1]
	if d.Verb != trace.AdaptDemote || d.Site != 1 {
		t.Fatalf("decision = %+v", d)
	}
	if d.GarbagePPM != 750_000 {
		t.Fatalf("garbage ppm = %d, want 750000", d.GarbagePPM)
	}

	// Demotion wipes the survival evidence and starts the cooldown: the
	// same survival stream that promoted the site must not re-promote it
	// until CooldownEpochs have passed.
	st := snap.Sites[0]
	if st.SurvWords != 0 || st.DeadWords != 0 {
		t.Fatalf("survival state not reset: %+v", st)
	}
	for i := uint64(0); i < e.params.CooldownEpochs-1; i++ {
		e.ObserveSurvive(1, 400, 0)
		e.ObserveGCEnd()
		if e.ShouldPretenure(1) {
			t.Fatalf("re-promoted during cooldown (epoch %d)", e.epoch)
		}
	}
	e.ObserveSurvive(1, 400, 0)
	e.ObserveGCEnd()
	e.ObserveSurvive(1, 400, 0)
	e.ObserveGCEnd()
	if !e.ShouldPretenure(1) {
		t.Fatal("site never re-earned promotion after cooldown")
	}
}

func TestDisableDemotion(t *testing.T) {
	e := newTestEngine(Params{DisableDemotion: true})
	promoteSite(e)
	e.ObserveAlloc(1, 1000, true)
	e.ObserveDeath(1, 1000, prof.DeathPretenured)
	e.ObserveGCEnd()
	if !e.ShouldPretenure(1) {
		t.Fatal("demotion fired with DisableDemotion set")
	}
}

func TestDecayForgetsOldEvidence(t *testing.T) {
	e := newTestEngine(Params{})
	// Build up strong survival, then feed pure deaths; the decayed
	// estimate must fall below the cutoff within a few epochs.
	e.ObserveSurvive(1, 1000, 0)
	e.ObserveGCEnd()
	for i := 0; i < 6; i++ {
		e.ObserveDeath(1, 1000, prof.DeathYoung)
		e.ObserveGCEnd()
	}
	var st SiteState
	for _, s := range e.Snapshot().Sites {
		if s.Site == 1 {
			st = s
		}
	}
	if ppm := st.SurvivalPPM(); ppm >= 200_000 {
		t.Fatalf("survival estimate %d ppm did not decay", ppm)
	}
}

func TestDecisionsSortedWithinEpoch(t *testing.T) {
	e := newTestEngine(Params{})
	// Touch sites in descending order; decisions must come out ascending.
	for _, site := range []obj.SiteID{9, 5, 2, 7} {
		e.ObserveSurvive(site, 400, 0)
	}
	e.ObserveGCEnd()
	snap := e.Snapshot()
	if len(snap.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(snap.Decisions))
	}
	for i := 1; i < len(snap.Decisions); i++ {
		if snap.Decisions[i-1].Site >= snap.Decisions[i].Site {
			t.Fatalf("decisions not in site order: %+v", snap.Decisions)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	feed := func(e *Engine) *Snapshot {
		for epoch := 0; epoch < 20; epoch++ {
			for site := obj.SiteID(1); site <= 40; site++ {
				words := uint64(site) * 7
				if epoch%3 == 0 {
					e.ObserveSurvive(site, words, words*2)
				} else {
					e.ObserveDeath(site, words, prof.DeathYoung)
				}
				if e.ShouldPretenure(site) {
					e.ObserveAlloc(site, words, true)
					e.ObserveDeath(site, words/2, prof.DeathPretenured)
				}
			}
			e.ObserveGCEnd()
		}
		e.Seal()
		return e.Snapshot()
	}
	a := feed(newTestEngine(Params{}))
	b := feed(newTestEngine(Params{}))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical feeds produced different snapshots")
	}
}

func TestSealFreezesEngine(t *testing.T) {
	e := newTestEngine(Params{})
	e.ObserveSurvive(1, 400, 0)
	e.Seal()
	// Post-seal events are ignored; the pre-seal epoch deltas were folded
	// into the decayed state without a decision.
	e.ObserveSurvive(1, 4000, 0)
	e.ObserveGCEnd()
	snap := e.Snapshot()
	if len(snap.Decisions) != 0 {
		t.Fatalf("sealed engine made decisions: %+v", snap.Decisions)
	}
	if snap.Sites[0].SurvWords != 400 {
		t.Fatalf("pre-seal deltas lost or post-seal deltas absorbed: %+v", snap.Sites[0])
	}
}

func TestWarmStart(t *testing.T) {
	e := newTestEngine(Params{})
	e.WarmStart(&RunProfile{Workload: "X", Sites: []SiteSeed{
		{Site: 3, SurvWords: 900, DeadWords: 100, Pretenured: true},
		{Site: 4, SurvWords: 10, DeadWords: 990},
	}})
	if !e.ShouldPretenure(3) {
		t.Fatal("stored pretenured site not warm-started")
	}
	if e.ShouldPretenure(4) {
		t.Fatal("low-survival seed pretenured")
	}
	snap := e.Snapshot()
	if len(snap.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1 warm", len(snap.Decisions))
	}
	d := snap.Decisions[0]
	if d.Verb != trace.AdaptWarm || d.Epoch != 0 || d.Site != 3 {
		t.Fatalf("warm decision = %+v", d)
	}
	// A stale warm start demotes through the normal machinery.
	e.ObserveAlloc(3, 1000, true)
	e.ObserveDeath(3, 900, prof.DeathPretenured)
	e.ObserveGCEnd()
	if e.ShouldPretenure(3) {
		t.Fatal("stale warm start did not self-correct")
	}
}

func TestEngineChargesAdaptComponent(t *testing.T) {
	meter := costmodel.NewMeter()
	e := New(meter, nil, Params{})
	e.ShouldPretenure(1)
	e.ObserveSurvive(1, 400, 0)
	e.ObserveGCEnd()
	snap := meter.Snapshot()
	want := costmodel.AdaptProbe + costmodel.AdaptSample + costmodel.AdaptEpochSite
	if snap.Adapt != want {
		t.Fatalf("adapt cycles = %d, want %d", snap.Adapt, want)
	}
	if snap.Client != 0 || snap.GC() != 0 {
		t.Fatalf("advisor charged outside the Adapt component: %+v", snap)
	}
}

func TestAdaptDecisionsReachTrace(t *testing.T) {
	meter := costmodel.NewMeter()
	rec := trace.NewRecorder(meter)
	e := New(meter, rec, Params{})
	promoteSite(e)
	e.ObserveAlloc(1, 400, true)
	e.ObserveDeath(1, 400, prof.DeathPretenured)
	e.ObserveGCEnd()
	rec.Finish(nil, 0)
	data := rec.Data("t")
	if len(data.Adapt) != 2 {
		t.Fatalf("trace decisions = %d, want 2", len(data.Adapt))
	}
	if data.Adapt[0].Verb != trace.AdaptPromote || data.Adapt[1].Verb != trace.AdaptDemote {
		t.Fatalf("trace verbs: %+v", data.Adapt)
	}
	var proms, demos, samples uint64
	for _, m := range data.Metrics {
		switch m.Name {
		case trace.MetricAdaptPromotions:
			proms = m.Value
		case trace.MetricAdaptDemotions:
			demos = m.Value
		case trace.MetricAdaptSamples:
			samples = m.Value
		}
	}
	if proms != 1 || demos != 1 || samples == 0 {
		t.Fatalf("metrics: proms=%d demos=%d samples=%d", proms, demos, samples)
	}
}
