package main

// The metric catalogue: the names and units BENCHMARK.json declares.
// Every timed run reports every end-to-end metric and every traced run
// every per-layer metric; the self-test keeps the two lists and
// BENCHMARK.json in step.

var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"updates_per_s": "1/s",
	"ingest_p50_ms": "ms",
	"ingest_p95_ms": "ms",
	"plot_p50_ms":   "ms",
	"restart_s":     "s",
	"heap_mb":       "MB",
	"fscore":        "ratio",
}

var perLayerUnits = map[string]string{
	"server.http_ms":                 "ms",
	"server.queue_wait_ms":           "ms",
	"server.publish_ms":              "ms",
	"server.publish_bytes":           "bytes",
	"server.tax_ratio":               "ratio",
	"pipeline.spec_ms":               "ms",
	"pipeline.stall_ms":              "ms",
	"pipeline.spec_hit_ratio":        "ratio",
	"wal.fsyncs_per_batch":           "count",
	"wal.fsync_ms":                   "ms",
	"wal.checkpoint_ms":              "ms",
	"wal.checkpoint_bytes":           "bytes",
	"wal.recover_ms":                 "ms",
	"core.search_ms":                 "ms",
	"core.apply_ms":                  "ms",
	"core.maintain_ms":               "ms",
	"core.dist_per_update":           "count",
	"core.prune_ratio":               "ratio",
	"core.rebuilt_per_batch":         "count",
	"optics.space_ms":                "ms",
	"optics.run_ms":                  "ms",
	"extract.tree_ms":                "ms",
	"runtime.alloc_bytes_per_update": "bytes",
	"runtime.gc_cpu_frac":            "ratio",
	"client.late_ms":                 "ms",
	"trace.unattributed_frac":        "ratio",
	"trace.overhead_frac":            "ratio",
}

// checkCatalogue fails the run when a metric of the run's kind is
// missing or carries another unit than the catalogue's.
func checkCatalogue(rep *report, traced bool) {
	want := endToEndUnits
	if traced {
		want = perLayerUnits
	}
	for name, unit := range want {
		m, ok := rep.metrics[name]
		rep.check(ok, "metric %s was not measured", name)
		rep.check(!ok || m.Unit == unit, "metric %s has unit %q, want %q", name, m.Unit, unit)
	}
	for name := range rep.metrics {
		_, ok := want[name]
		rep.check(ok, "metric %s is not in the catalogue", name)
	}
}
