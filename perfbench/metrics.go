package main

// metricDef names one printed metric and its unit. The two tables below are
// the benchmark's contract with BENCHMARK.json: the self-test checks that
// both list exactly the same names and units.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are printed with --trace 0, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"peak_rss_mb", "MB"},
}

// ladderRungs are the rungs of the layer ladder, bottom up; each prints
// ladder.<rung>.ns_per_op and ladder.<rung>.allocs_per_op.
var ladderRungs = []string{
	"sim.schedule",
	"sim.actor_sleep",
	"netsim.transfer_flat",
	"station.visit",
	"reqpath.ctxflat",
	"reqpath.pipeline_do",
	"blobsvc.get_flat",
	"tablesvc.get_flat",
	"tablesvc.insert_flat",
	"queuesvc.add_flat",
	"tablesvc.get_blocking",
	"azure.get_blob_flat",
	"azure.get_entity_flat",
	"wire.inline.blob_get",
	"wire.inline.entity_get",
	"wire.inline.entity_insert",
	"wire.inline.queue_add",
	"wire.http.blob_get",
	"wire.http.entity_get",
	"wire.http.entity_insert",
	"wire.http.queue_add",
}

// cpuModules are the buckets the traced run's CPU self samples fall into.
var cpuModules = []string{
	"sim", "netsim", "station", "reqpath", "blobsvc", "tablesvc", "queuesvc",
	"storerr", "simrand", "azure", "fabric", "core", "modis", "geo", "wire",
	"metrics", "net_http", "runtime_gc", "runtime_sched", "other",
}

// wireSpans are the self times of the four spans of a wire-mix request.
var wireSpans = []string{"client", "serve", "gate_wait", "engine"}

// perLayer are printed with --trace 1. A metric a workload does not
// exercise or cannot observe through public API reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"error_rate", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.procs_spawned", "count"},
		{"sim.workers_peak", "count"},
		{"domains.rounds", "count"},
		{"domains.mail", "count"},
		{"domains.events_per_round", "count"},
		{"domains.utilization", "ratio"},
		{"domains.wait_s", "s"},
		{"domains.imbalance", "ratio"},
		{"domains.speedup_vs_d1", "ratio"},
	}
	for _, r := range ladderRungs {
		m = append(m,
			metricDef{"ladder." + r + ".ns_per_op", "ns"},
			metricDef{"ladder." + r + ".allocs_per_op", "count"})
	}
	m = append(m,
		metricDef{"reqpath.requests", "count"},
		metricDef{"reqpath.errors", "count"},
		metricDef{"azure.retry_ratio", "ratio"},
	)
	for _, s := range wireSpans {
		m = append(m,
			metricDef{"wire." + s + "_us_p50", "us"},
			metricDef{"wire." + s + "_us_p99", "us"})
	}
	m = append(m,
		metricDef{"modis.task_execs", "count"},
		metricDef{"modis.ns_per_task", "ns"},
	)
	for _, c := range cpuModules {
		m = append(m, metricDef{"cpu_share." + c, "ratio"})
	}
	return append(m,
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.goroutines_peak", "count"},
	)
}
