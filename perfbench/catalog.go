package main

// The metric catalog: every name the benchmark prints, with its unit and
// direction. BENCHMARK.json at the repository root lists the same names;
// the smoke test holds the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to the layer should move.
	Moves string
}

var endToEnd = []metricDef{
	{Name: "result_s", Unit: "s", Better: "lower"},
	{Name: "items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "slo_ok_share", Unit: "ratio", Better: "higher"},
}

// ungated end-to-end metrics are printed and recorded on every untraced
// run, but BENCHMARK.json gives them no bound. The serve workload's miss
// p90 rests on 100 misses per 20 s run; on a shared 2-CPU host it moved by
// half its median between runs of different seeds, more than the largest
// bound a gated metric may have.
var ungated = []metricDef{
	{Name: "miss_p90_ms", Unit: "ms", Better: "lower"},
}

var perLayer = []metricDef{
	{"webgen.frame_ms", "ms", "lower", "serve miss_p50_ms; setup_s"},
	{"browser.visit_ms", "ms", "lower", "crawl result_s, cpu_s"},
	{"browser.requests", "count", "lower", "crawl result_s, cpu_s"},
	{"crawler.self_ms", "ms", "lower", "crawl result_s"},
	{"crawler.visits", "count", "higher", "crawl items_per_s"},
	{"crawler.attempts", "count", "lower", "crawl result_s"},
	{"crawler.useful_ratio", "ratio", "higher", "crawl result_s"},
	{"crawler.site_p50_ms", "ms", "lower", "crawl result_s"},
	{"crawler.site_p90_ms", "ms", "lower", "crawl result_s (the slowest sites hold the reorder window)"},
	{"colstore.encode_ms", "ms", "lower", "crawl result_s, peak_rss_mb"},
	{"colstore.decode_ms", "ms", "lower", "analyze result_s"},
	{"colstore.bytes", "bytes", "lower", "crawl result_s; analyze result_s"},
	{"urlutil.keycache_ms", "ms", "lower", "analyze cpu_s"},
	{"urlutil.keys", "count", "lower", "analyze cpu_s"},
	{"tree.build_ms", "ms", "lower", "analyze cpu_s, result_s; epochs result_s"},
	{"tree.nodes", "count", "lower", "analyze cpu_s"},
	{"filterlist.match_ms", "ms", "lower", "analyze cpu_s"},
	{"filterlist.memo_hit_ratio", "ratio", "higher", "analyze cpu_s"},
	{"treediff.compare_ms", "ms", "lower", "analyze cpu_s; epochs result_s"},
	{"core.analyze_ms", "ms", "lower", "analyze result_s"},
	{"core.pages", "count", "higher", "analyze items_per_s"},
	{"core.vetted", "count", "higher", "analyze items_per_s"},
	{"core.derived_ms", "ms", "lower", "analyze result_s"},
	{"core.attribution_ms", "ms", "lower", "analyze result_s"},
	{"core.profile_pairs_ms", "ms", "lower", "analyze result_s"},
	{"report.text_ms", "ms", "lower", "analyze result_s; serve miss_p50_ms"},
	{"report.json_ms", "ms", "lower", "analyze result_s; serve miss_p50_ms"},
	{"report.csv_ms", "ms", "lower", "analyze result_s; serve miss_p50_ms"},
	{"report.bytes", "bytes", "lower", "analyze result_s"},
	{"drift.snapshot_ms", "ms", "lower", "epochs result_s"},
	{"drift.encode_ms", "ms", "lower", "epochs result_s"},
	{"drift.diff_ms", "ms", "lower", "epochs result_s"},
	{"drift.rules_ms", "ms", "lower", "epochs result_s"},
	{"drift.baseline_bytes", "bytes", "lower", "epochs result_s"},
	{"service.epoch_ms", "ms", "lower", "epochs result_s"},
	{"service.queue_wait_p50_ms", "ms", "lower", "serve miss_p50_ms"},
	{"service.queue_wait_p90_ms", "ms", "lower", "serve miss_p90_ms (queue wait rises before throughput saturates)"},
	{"service.job_p50_ms", "ms", "lower", "serve miss_p50_ms"},
	{"service.cache_hit_ratio", "ratio", "higher", "serve slo_ok_share"},
	{"service.rejected", "count", "lower", "serve slo_ok_share"},
	{"service.submit_p50_ms", "ms", "lower", "serve miss_p50_ms"},
	{"runtime.gc_cpu_share", "ratio", "lower", "analyze cpu_s"},
	{"runtime.alloc_mb", "MiB", "lower", "analyze cpu_s, peak_rss_mb; crawl peak_rss_mb"},
	{"runtime.gc_cycles", "count", "lower", "analyze cpu_s"},
	{"generator.late_p90_ms", "ms", "lower", "validity only: should stay near 0"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, ungated, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
