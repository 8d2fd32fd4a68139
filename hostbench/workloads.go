package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"tilgc/gcsim"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/fuzz"
	"tilgc/internal/harness"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
)

// A workload is one benchmark input. Its set-up and iteration are what
// the untraced run times; the traced run times iterateTraced instead.
type workload interface {
	// setUp does the work that must precede iterations. It may run again
	// between iterations and must leave the same state each time.
	setUp(c *checker)
	// iterate runs the workload's fixed simulated work once.
	iterate(c *checker)
	// iterateTraced runs one iteration with spans around the calls into
	// each layer, adding the layer metrics to l. It returns the host time
	// spent on work the untraced iteration does not do, which was run only
	// to attribute time to a layer.
	iterateTraced(c *checker, l layerSample) time.Duration
	// setupLayer names the layer metric that set-up time is reported as.
	setupLayer() string
}

// layerSample holds one traced iteration's layer metrics.
type layerSample map[string]float64

// span adds the host time since t to the named metric.
func (l layerSample) span(name string, t time.Time) time.Duration {
	d := time.Since(t)
	l[name] += d.Seconds()
	return d
}

// sizes are the inputs of one benchmark scale. The paper programs and the
// server mix are fixed inputs; the seed only moves the fuzz fleet.
type sizes struct {
	kb, color, server gcsim.Scale
	fuzzPerProfile    int
}

var scaleSizes = map[string]sizes{
	// full is what BENCHMARK.json runs.
	"full": {
		kb:             gcsim.Scale{Repeat: 0.002, Depth: 0.08},
		color:          gcsim.Scale{Repeat: 0.1},
		server:         gcsim.Scale{Repeat: 1},
		fuzzPerProfile: 6,
	},
	// quick is the self-test's scale.
	"quick": {
		kb:             gcsim.Scale{Repeat: 0.001, Depth: 0.02},
		color:          gcsim.Scale{Repeat: 0.005},
		server:         gcsim.Scale{Repeat: 0.05},
		fuzzPerProfile: 1,
	},
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"kb-markers", "stack-scan", "server-traced", "fuzz-fleet"}

func newWorkload(name string, sz sizes, seed uint64) (workload, error) {
	switch name {
	case "kb-markers":
		return &gcsimWorkload{name: name, program: "Knuth-Bendix", scale: sz.kb,
			collector: gcsim.GenerationalMarkers, k: 4}, nil
	case "stack-scan":
		return &gcsimWorkload{name: name, program: "Color", scale: sz.color,
			collector: gcsim.Generational, k: 1.5, nursery: 512}, nil
	case "server-traced":
		return &serverWorkload{scale: sz.server}, nil
	case "fuzz-fleet":
		return &fuzzWorkload{seeds: fleetSeeds(seed<<20, sz.fuzzPerProfile)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// addSim adds one run's exact simulated facts to l.
func addSim(l layerSample, b costmodel.Breakdown, st *core.GCStats) {
	l["sim_client_mcycles"] += float64(b.Client) / 1e6
	l["sim_gc_mcycles"] += float64(b.GC()) / 1e6
	l["costmodel.gc_stack_mcycles"] += float64(b.GCStack) / 1e6
	l["costmodel.gc_copy_mcycles"] += float64(b.GCCopy) / 1e6
	l["sim_pause_max_kcycles"] = max(l["sim_pause_max_kcycles"], float64(st.MaxPauseCycles)/1e3)
	l["core.collections"] += float64(st.NumGC)
	l["core.majors"] += float64(st.NumMajor)
	l["core.frames_decoded"] += float64(st.FramesDecoded)
	l["core.frames_reused"] += float64(st.FramesReused)
	l["core.bytes_copied"] += float64(st.BytesCopied)
	l["core.words_marked"] += float64(st.WordsMarked)
	l["core.words_swept"] += float64(st.WordsSwept)
	l["core.words_slid"] += float64(st.WordsSlid)
	l["core.parallel_quanta"] += float64(st.ParallelQuanta)
}

// simFacts are the exact simulated facts pinned for one run.
func simFacts(check uint64, b costmodel.Breakdown, st *core.GCStats) facts {
	return facts{
		"check":            check,
		"client_cycles":    uint64(b.Client),
		"gc_cycles":        uint64(b.GC()),
		"collections":      st.NumGC,
		"majors":           st.NumMajor,
		"pause_max_cycles": st.MaxPauseCycles,
	}
}

// nsPerKcycle is host nanoseconds per thousand simulated cycles.
func nsPerKcycle(d time.Duration, c costmodel.Cycles) float64 {
	if c == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / (float64(c) / 1e3)
}

// ---- kb-markers and stack-scan: a paper program through gcsim ----

// Sizing-run parameters: a small nursery and a tight budget make major
// collections frequent, so the live set is sampled closely (the floor of
// harness.Calibrate's tight pass).
const (
	sizingBudgetWords  = 64 * 1024
	sizingNurseryWords = 4 * 1024
	minLiveWords       = 256
)

// gcsimWorkload runs one of the paper's programs through the public gcsim
// API under the paper's k·Min budget, Min being twice the max live data.
type gcsimWorkload struct {
	name      string
	program   string
	scale     gcsim.Scale
	collector gcsim.CollectorChoice
	k         float64
	nursery   uint64 // 0: gcsim's default

	budget uint64 // words, from the sizing run

	// The last untraced iteration, which the decorated run must match.
	check uint64
	stats gcsim.GCStats
}

func (w *gcsimWorkload) setupLayer() string { return "gcsim.size_s" }

// setUp is the sizing run that measures max live for the budget.
func (w *gcsimWorkload) setUp(c *checker) {
	r := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Generational,
		BudgetWords: sizingBudgetWords, NurseryWords: sizingNurseryWords})
	_, err := r.RunBenchmark(w.program, w.scale)
	c.check(err == nil, "%s: sizing run: %v", w.name, err)
	live := max(r.Stats().MaxLiveBytes/8, minLiveWords)
	w.budget = uint64(w.k * 2 * float64(live))
	c.facts(w.name+"/sizing", facts{"max_live_words": live})
}

func (w *gcsimWorkload) newRuntime() *gcsim.Runtime {
	return gcsim.NewRuntime(gcsim.Config{Collector: w.collector,
		BudgetWords: w.budget, NurseryWords: w.nursery})
}

func (w *gcsimWorkload) iterate(c *checker) {
	r := w.newRuntime()
	check, err := r.RunBenchmark(w.program, w.scale)
	w.verify(c, r, check, err)
	w.check, w.stats = check, *r.Stats()
}

func (w *gcsimWorkload) verify(c *checker, r *gcsim.Runtime, check uint64, err error) {
	if err != nil {
		c.check(false, "%s: %v", w.name, err)
		return
	}
	c.facts(w.name, simFacts(check, r.Mutator().Meter.Snapshot(), r.Stats()))
}

func (w *gcsimWorkload) iterateTraced(c *checker, l layerSample) time.Duration {
	r := w.newRuntime()
	m := r.Mutator()
	d := newCountingCollector(m.Col)
	m.Col = d
	t := time.Now()
	check, err := r.RunBenchmark(w.program, w.scale)
	run := time.Since(t)
	w.verify(c, r, check, err)
	st := r.Stats()
	c.check(check == w.check && *st == w.stats,
		"%s: the decorated run differs from the untraced run", w.name)
	c.check(d.allCaught(), "%s: %d of %d collections ran outside a timed call",
		w.name, st.NumGC-d.caught, st.NumGC)

	b := m.Meter.Snapshot()
	l["core.gc_s"] += d.gc.Seconds()
	l["workload.self_s"] += (run - d.gc).Seconds()
	l["core.ns_per_gc_kcycle"] = nsPerKcycle(d.gc, b.GC())
	l["workload.ns_per_client_kcycle"] = nsPerKcycle(run-d.gc, b.Client)
	l["core.alloc_calls"] += float64(d.allocs)
	l["core.load_calls"] += float64(d.loads)
	l["core.store_calls"] += float64(d.stores)
	l["rt.frames_pushed"] += float64(m.Stack.FramePushes())
	l["rt.max_depth"] = float64(m.Stack.MaxDepth())
	addSim(l, b, st)
	return 0
}

// ---- server-traced: the request server through the harness ----

const (
	serverProgram = "ServerDripChurn"
	serverK       = 1.2
	serverThreads = 4
	serverWorkers = 4
)

// serverOld are the old-generation collectors server-traced runs under.
var serverOld = []core.OldCollector{core.OldCopy, core.OldMarkSweep, core.OldMarkCompact}

// serverWorkload runs the server mix traced under each old collector and
// takes each trace through encode, decode, validation and the SLO report.
type serverWorkload struct {
	scale gcsim.Scale
}

func (w *serverWorkload) setupLayer() string { return "harness.calibrate_s" }

func (w *serverWorkload) config(old core.OldCollector, traced bool) harness.RunConfig {
	return harness.RunConfig{
		Workload: serverProgram, Scale: w.scale, Kind: harness.KindGenMarkersPretenure,
		K: serverK, Threads: serverThreads, GCWorkers: serverWorkers, OldCollector: old,
		Trace: traced, TraceHeap: traced,
	}
}

// setUp is a cold calibration: the paper's profile-driven pretenuring step.
func (w *serverWorkload) setUp(c *checker) {
	harness.ClearCalibrationCache()
	_, err := harness.Calibrate(serverProgram, w.scale, 0)
	c.check(err == nil, "server-traced: calibration: %v", err)
}

func (w *serverWorkload) iterate(c *checker) {
	var first *harness.RunResult
	for _, old := range serverOld {
		res, _, _ := w.pipeline(c, old)
		w.agree(c, &first, res)
	}
}

// agree checks that every old collector gives the same client result.
func (w *serverWorkload) agree(c *checker, first **harness.RunResult, res *harness.RunResult) {
	if res == nil {
		return
	}
	if *first == nil {
		*first = res
		return
	}
	c.check(res.Check == (*first).Check, "server-traced: %s check %#x, %s check %#x",
		res.Config.Label(), res.Check, (*first).Config.Label(), (*first).Check)
}

// pipeline runs one traced run and its trace through encode, decode,
// validation and the SLO report. It returns the run, the host time of the
// traced run itself, and the other steps' layer metrics.
func (w *serverWorkload) pipeline(c *checker, old core.OldCollector) (*harness.RunResult, time.Duration, layerSample) {
	l := layerSample{}
	cfg := w.config(old, true)
	name := "server-traced/" + old.String()
	t := time.Now()
	res, err := harness.Run(cfg)
	run := time.Since(t)
	if err != nil {
		c.check(false, "%s: %v", name, err)
		return nil, run, l
	}
	d := res.Trace.Data(cfg.Label())

	var enc bytes.Buffer
	t = time.Now()
	err = trace.NewFile(d).WriteJSONL(&enc)
	l.span("trace.encode_s", t)
	c.check(err == nil, "%s: encode: %v", name, err)

	t = time.Now()
	f, err := trace.ReadJSONL(bytes.NewReader(enc.Bytes()))
	l.span("trace.decode_s", t)
	if err != nil || len(f.Runs) != 1 {
		c.check(false, "%s: decode: %v", name, err)
		return res, run, l
	}

	t = time.Now()
	var again bytes.Buffer
	validErr := f.Validate()
	reconErr := f.Runs[0].Reconcile()
	againErr := f.WriteJSONL(&again)
	l.span("trace.validate_s", t)
	c.check(validErr == nil, "%s: Validate: %v", name, validErr)
	c.check(reconErr == nil, "%s: Reconcile: %v", name, reconErr)
	c.check(againErr == nil && bytes.Equal(enc.Bytes(), again.Bytes()),
		"%s: encode→decode→encode is not byte-identical", name)

	t = time.Now()
	rep, err := slo.ComputeFile(f, slo.DefaultWindows)
	if err == nil {
		err = rep.Validate()
	}
	l.span("slo.compute_s", t)
	if err != nil {
		c.check(false, "%s: slo report: %v", name, err)
		return res, run, l
	}
	pinned := simFacts(res.Check, res.Times, &res.Stats)
	pinned["pause_p99_cycles"] = rep.Runs[0].Pauses.P99
	c.facts(name, pinned)

	l["trace.jsonl_mb"] = float64(enc.Len()) / 1e6
	l["trace.events"] = float64(len(d.Events))
	l["sim_pause_p99_kcycles"] = float64(rep.Runs[0].Pauses.P99) / 1e3
	return res, run, l
}

func (w *serverWorkload) iterateTraced(c *checker, l layerSample) time.Duration {
	var extra time.Duration
	var first *harness.RunResult
	for _, old := range serverOld {
		t := time.Now()
		plain, err := harness.Run(w.config(old, false))
		untraced := l.span("harness.run_s", t)
		extra += untraced
		res, traced, steps := w.pipeline(c, old)
		l["trace.record_s"] += (traced - untraced).Seconds()
		for _, name := range sortedKeys(steps) {
			if name == "sim_pause_p99_kcycles" {
				l[name] = max(l[name], steps[name])
			} else {
				l[name] += steps[name]
			}
		}
		if err != nil || res == nil {
			c.check(false, "server-traced/%s: untraced run: %v", old, err)
			continue
		}
		c.check(plain.Check == res.Check && plain.Stats == res.Stats && plain.Times == res.Times,
			"server-traced/%s: the traced run differs from the untraced run", old)
		w.agree(c, &first, res)
		addSim(l, res.Times, &res.Stats)
	}
	return extra
}

// ---- fuzz-fleet: the differential fuzzing fleet ----

// Fleet programs are taken only from the middle third of the
// generator's op-count range (150 to 600 ops). A program's check time
// varies about twofold at a given length and far more across lengths;
// fixing the length band and the count per profile keeps the fleet's
// work steady from seed to seed.
const (
	fleetMinOps = 300
	fleetMaxOps = 450
)

// fleetSeeds returns the fleet's seeds, in ascending order: scanning
// upward from start, each generator profile takes the first perProfile
// seeds whose programs are in the op-count band. Every run checks the
// same number of programs of each profile and length; the seed only
// moves which programs those are.
func fleetSeeds(start uint64, perProfile int) []uint64 {
	present := map[fuzz.Profile]bool{}
	for s := start; s < start+1024; s++ {
		present[fuzz.ProfileOf(s)] = true
	}
	taken := map[fuzz.Profile]int{}
	full := 0
	var seeds []uint64
	for s := start; full < len(present); s++ {
		p := fuzz.ProfileOf(s)
		if n := len(fuzz.Generate(s).Ops); taken[p] == perProfile || n < fleetMinOps || n > fleetMaxOps {
			continue
		}
		seeds = append(seeds, s)
		if taken[p]++; taken[p] == perProfile {
			full++
		}
	}
	return seeds
}

// familyOf assigns a matrix configuration to the family its traced time
// is reported under; the first matching axis wins.
func familyOf(c fuzz.Config) string {
	switch {
	case c.Old == core.OldMarkSweep:
		return "marksweep"
	case c.Old == core.OldMarkCompact:
		return "markcompact"
	case c.Workers > 1:
		return "parallel"
	case c.Adapt:
		return "adapt"
	case c.AgingMinors > 0:
		return "aging"
	case c.Cards:
		return "cards"
	case c.Semispace:
		return "semispace"
	}
	return "gen"
}

// fuzzWorkload checks a fleet of generated programs across the collector
// matrix under every oracle, one seed at a time.
type fuzzWorkload struct {
	seeds []uint64
	progs []*fuzz.Program // from the last set-up, through the corpus format
}

func (w *fuzzWorkload) setupLayer() string { return "fuzz.generate_s" }

// setUp generates the fleet's programs and takes each through the corpus
// text format.
func (w *fuzzWorkload) setUp(c *checker) {
	w.progs = w.progs[:0]
	for _, s := range w.seeds {
		text := fuzz.Generate(s).Format()
		p, err := fuzz.ParseString(text)
		c.check(err == nil && p.Format() == text, "fuzz-fleet: seed %d: the .prog round trip changed the program: %v", s, err)
		w.progs = append(w.progs, p)
	}
}

func (w *fuzzWorkload) iterate(c *checker) {
	for _, s := range w.seeds {
		r := fuzz.CheckSeed(s)
		c.check(len(r.Failures) == 0, "fuzz-fleet: seed %d: %v", s, r.Failures)
	}
}

func (w *fuzzWorkload) iterateTraced(c *checker, l layerSample) time.Duration {
	for i, s := range w.seeds {
		t := time.Now()
		r := fuzz.CheckSeed(s)
		l.span("fuzz.check_s", t)
		c.check(len(r.Failures) == 0, "fuzz-fleet: seed %d: %v", s, r.Failures)
		l["fuzz.failures"] += float64(len(r.Failures))
		l["fuzz.programs"]++
		l["fuzz.ops"] += float64(len(w.progs[i].Ops))
	}
	// Per-family times re-check every program on each family's share of
	// the matrix; that pass is attribution only.
	families := map[string][]fuzz.Config{}
	for _, cfg := range fuzz.Matrix() {
		families[familyOf(cfg)] = append(families[familyOf(cfg)], cfg)
	}
	var extra time.Duration
	for _, fam := range fuzzFamilies {
		for _, p := range w.progs {
			t := time.Now()
			fails := fuzz.CheckProgram(p, families[fam])
			extra += l.span("fuzz.check_s."+fam, t)
			c.check(len(fails) == 0, "fuzz-fleet: seed %d, %s family: %v", p.Seed, fam, fails)
		}
	}
	return extra
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
