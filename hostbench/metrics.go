package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user of
// the simulator sees. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"iter_s", "s"},        // median host time of one iteration
	{"setup_s", "s"},       // median host time of the workload's set-up
	{"alloc_mb", "MB"},     // Go heap bytes allocated per iteration
	{"retained_mb", "MB"},  // Go heap live after the run and a forced GC
	{"pass_frac", "ratio"}, // checks passed / checks attempted
}

// fuzzFamilies are the collector families the traced fuzz-fleet run
// times separately, in report order (see familyOf).
var fuzzFamilies = []string{"semispace", "gen", "cards", "aging", "adapt", "parallel", "marksweep", "markcompact"}

// pprofPackages are the groups the traced run's CPU profile splits self
// time into (see packageOf).
var pprofPackages = []string{
	"workload", "rt", "mem", "obj", "core", "costmodel", "prof", "trace",
	"slo", "sanitize", "fuzz", "adapt", "harness", "gcsim", "bench",
	"goruntime", "stdlib",
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports every name; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead", "ratio"},
		{"bench.clock_ns", "ns"},
		{"bench.ref_alu_s", "s"},
		{"bench.untraced_iter_s", "s"},
		{"bench.traced_iter_s", "s"},

		{"core.gc_s", "s"},
		{"core.ns_per_gc_kcycle", "ns"},
		{"workload.self_s", "s"},
		{"workload.ns_per_client_kcycle", "ns"},
		{"core.alloc_calls", "count"},
		{"core.load_calls", "count"},
		{"core.store_calls", "count"},
		{"rt.frames_pushed", "count"},
		{"rt.max_depth", "count"},

		{"core.collections", "count"},
		{"core.majors", "count"},
		{"core.frames_decoded", "count"},
		{"core.frames_reused", "count"},
		{"core.bytes_copied", "count"},
		{"core.words_marked", "count"},
		{"core.words_swept", "count"},
		{"core.words_slid", "count"},
		{"core.parallel_quanta", "count"},

		{"sim_client_mcycles", "Mcycles"},
		{"sim_gc_mcycles", "Mcycles"},
		{"sim_pause_max_kcycles", "kcycles"},
		{"sim_pause_p99_kcycles", "kcycles"},
		{"costmodel.gc_stack_mcycles", "Mcycles"},
		{"costmodel.gc_copy_mcycles", "Mcycles"},

		{"gcsim.size_s", "s"},
		{"harness.calibrate_s", "s"},
		{"harness.run_s", "s"},
		{"trace.record_s", "s"},
		{"trace.encode_s", "s"},
		{"trace.decode_s", "s"},
		{"trace.validate_s", "s"},
		{"trace.jsonl_mb", "MB"},
		{"trace.events", "count"},
		{"slo.compute_s", "s"},

		{"fuzz.generate_s", "s"},
		{"fuzz.check_s", "s"},
	}
	for _, f := range fuzzFamilies {
		defs = append(defs, metricDef{"fuzz.check_s." + f, "s"})
	}
	defs = append(defs,
		metricDef{"fuzz.programs", "count"},
		metricDef{"fuzz.ops", "count"},
		metricDef{"fuzz.failures", "count"},

		metricDef{"goruntime.gc_cpu_s", "s"},
		metricDef{"goruntime.gc_cycles", "count"},
		metricDef{"goruntime.alloc_objects", "count"},
	)
	for _, p := range pprofPackages {
		defs = append(defs, metricDef{"pprof." + p, "share"})
	}
	return defs
}()
