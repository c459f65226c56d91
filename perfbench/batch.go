package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"webmeasure"
	"webmeasure/internal/dataset"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
)

// childSpec is one fresh-process pass of a batch workload.
type childSpec struct {
	Kind   string `json:"kind"` // "analyze" or "crawl"
	Seed   int64  `json:"seed"`
	Sites  int    `json:"sites"`
	Pages  int    `json:"pages"`
	Faults string `json:"faults,omitempty"`
	Input  string `json:"input,omitempty"`
	Out    string `json:"out"`
	Trace  bool   `json:"trace,omitempty"`
}

// passStats is what a pass measured in the process under test.
type passStats struct {
	Wall     float64            `json:"wall_s"`
	CPU      float64            `json:"cpu_s"`
	RSS      float64            `json:"peak_rss_mb"`
	Items    int                `json:"items"`
	Runtime  runtimeSample      `json:"runtime"`
	Spans    []span             `json:"spans,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// runChild is the body of a fresh-process pass: the timer covers the
// public calls from opening the input to closing the last output.
func runChild(specJSON string, stdout, stderr io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench child: %v\n", err)
		return 2
	}
	var (
		tr  *tracer
		reg *metrics.Registry
	)
	if spec.Trace {
		tr, reg = newTracer(), metrics.New()
	}
	cfg := webmeasure.Config{
		Seed: spec.Seed, Sites: spec.Sites, PagesPerSite: spec.Pages, FaultProfile: spec.Faults,
		Workers: poolWidth, SiteWorkers: poolWidth, Metrics: reg,
	}
	rt0 := readRuntime()
	t0 := time.Now()
	var (
		items int
		err   error
	)
	switch spec.Kind {
	case "analyze":
		items, err = analyzePass(cfg, spec.Input, spec.Out, tr)
	case "crawl":
		items, err = crawlPass(context.Background(), cfg, spec.Out, tr)
	default:
		err = fmt.Errorf("unknown pass kind %q", spec.Kind)
	}
	wall := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench child: %v\n", err)
		return 1
	}
	rt := readRuntime().sub(rt0)
	rss, err := peakRSSMiB("self")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench child: %v\n", err)
		return 1
	}
	ps := passStats{Wall: wall, CPU: rt.ProcCPU, RSS: rss, Items: items, Runtime: rt}
	if tr != nil {
		ps.Spans = tr.spans
		ps.Counters = registryCounters(reg)
	}
	if err := json.NewEncoder(stdout).Encode(ps); err != nil {
		return 1
	}
	return 0
}

// analyzePass is the analyze workload's measured work.
func analyzePass(cfg webmeasure.Config, input, out string, tr *tracer) (int, error) {
	f, err := os.Open(input)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var res *webmeasure.Results
	if _, err := tr.timed("core.LoadAndAnalyzeContext", -1, func() error {
		res, err = webmeasure.LoadAndAnalyzeContext(context.Background(), f, cfg)
		return err
	}); err != nil {
		return 0, err
	}
	if err := writeArtifacts(res, out, tr); err != nil {
		return 0, err
	}
	return res.Summary().Pages, nil
}

// writeArtifacts renders the report, the JSON bundle and the CSV files
// into dir, each inside its own span.
func writeArtifacts(res *webmeasure.Results, dir string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Join(dir, "csv"), 0o755); err != nil {
		return err
	}
	if _, err := tr.timed("report.WriteReport", -1, func() error {
		return writeFile(filepath.Join(dir, "report.txt"), func(w io.Writer) error { res.WriteReport(w); return nil })
	}); err != nil {
		return err
	}
	if _, err := tr.timed("report.WriteJSON", -1, func() error {
		return writeFile(filepath.Join(dir, "result.json"), res.WriteJSON)
	}); err != nil {
		return err
	}
	_, err := tr.timed("report.WriteCSVFiles", -1, func() error {
		return res.WriteCSVFiles(filepath.Join(dir, "csv"))
	})
	return err
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := fn(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSink records a span around every call the crawl makes into the
// columnar writer.
type spanSink struct {
	w      *dataset.ColSiteWriter
	tr     *tracer
	parent int
}

func (s *spanSink) WriteSite(site string, visits []*measurement.Visit) error {
	id := s.tr.start("colstore.WriteSite", s.parent)
	defer s.tr.end(id)
	return s.w.WriteSite(site, visits)
}

// crawlPass is the crawl workload's measured work: CrawlStream of cfg
// into a columnar file, with the sink calls and Close inside spans. It
// returns the visits made.
func crawlPass(ctx context.Context, cfg webmeasure.Config, out string, tr *tracer) (int, error) {
	f, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	root := tr.start("crawler.CrawlStream", -1)
	sink := &spanSink{w: dataset.NewColSiteWriter(f), tr: tr, parent: root}
	stats, err := webmeasure.CrawlStream(ctx, cfg, sink)
	tr.end(root)
	if err != nil {
		return 0, err
	}
	if _, err := tr.timed("colstore.Close", -1, sink.w.Close); err != nil {
		return 0, err
	}
	return stats.VisitsTotal, f.Close()
}

// registryCounters flattens the counters and histograms a pass's
// registry collected: counters by name, histograms as name.p50/.p90/.count.
func registryCounters(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		bs := make([]bucket, len(h.Stats.Buckets))
		for i, b := range h.Stats.Buckets {
			bs[i] = bucket{le: b.Le, count: float64(b.Count)}
		}
		out[h.Name+".p50"] = bucketQuantile(bs, 0.5)
		out[h.Name+".p90"] = bucketQuantile(bs, 0.9)
		out[h.Name+".count"] = float64(h.Stats.Count)
	}
	return out
}

// spawnPass runs one pass in a fresh process of this executable.
func spawnPass(e *env, spec childSpec) (passStats, time.Time, error) {
	js, _ := json.Marshal(spec)
	cmd := exec.Command(e.self, "-child", string(js))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return passStats{}, started, fmt.Errorf("%s pass: %w", spec.Kind, err)
	}
	var ps passStats
	if err := json.Unmarshal(out.Bytes(), &ps); err != nil {
		return passStats{}, started, fmt.Errorf("%s pass output: %w", spec.Kind, err)
	}
	return ps, started, nil
}

// phase paces the passes of a timed phase: the first always runs, and
// another starts only if, lasting as long as the one before, it ends
// within the phase.
type phase struct {
	seconds  float64
	t0, last time.Time
}

func newPhase(seconds float64) *phase { return &phase{seconds: seconds} }

func (p *phase) next() bool {
	now := time.Now()
	if p.t0.IsZero() {
		p.t0, p.last = now, now
		return true
	}
	step := now.Sub(p.last)
	p.last = now
	return now.Add(step).Sub(p.t0).Seconds() <= p.seconds
}

// batchPasses runs fresh-process passes for the timed phase of
// e.opt.seconds, checks each pass's output, and returns the
// passes with their check outcome. mk builds pass i's spec; check
// verifies its output after the timer stopped.
func batchPasses(e *env, mk func(i int, traced bool) childSpec, check func(spec childSpec) error, r *result) ([]passStats, []bool, error) {
	var (
		passes []passStats
		oks    []bool
	)
	ph := newPhase(e.opt.seconds)
	for i := 0; ph.next(); i++ {
		spec := mk(i, false)
		ps, _, err := spawnPass(e, spec)
		if err != nil {
			return nil, nil, err
		}
		ok := true
		if err := check(spec); err != nil {
			r.problem("pass %d: %v", i, err)
			ok = false
		}
		if err := os.RemoveAll(spec.Out); err != nil {
			return nil, nil, err
		}
		passes, oks = append(passes, ps), append(oks, ok)
	}
	return passes, oks, nil
}

// batchEndToEnd turns a batch workload's untraced passes into the
// end-to-end metrics. Each pass is one job; nothing is cached, so every
// pass is a miss, and it meets the latency limit when it finished
// correctly within limitMS.
func batchEndToEnd(r *result, passes []passStats, oks []bool, limitMS float64) {
	var walls, rates, cpus, rss, lat []float64
	within := 0
	for i, p := range passes {
		walls = append(walls, p.Wall)
		rates = append(rates, float64(p.Items)/p.Wall)
		cpus = append(cpus, p.CPU)
		rss = append(rss, p.RSS)
		lat = append(lat, p.Wall*1000)
		if oks[i] && p.Wall*1000 <= limitMS {
			within++
		}
		r.attempted++
		if !oks[i] {
			r.failed++
		}
	}
	r.values["result_s"] = walls
	r.values["cpu_s"] = cpus
	r.set("result_s", hdMedian(walls))
	r.set("items_per_s", hdMedian(rates))
	r.set("cpu_s", hdMedian(cpus))
	r.set("peak_rss_mb", hdMedian(rss))
	r.set("miss_p50_ms", hdQuantile(lat, 0.5))
	r.set("miss_p90_ms", hdQuantile(lat, 0.9))
	r.set("slo_ok_share", float64(within)/float64(len(passes)))
	for _, n := range []string{"result_s", "items_per_s", "cpu_s", "peak_rss_mb", "miss_p50_ms", "miss_p90_ms", "slo_ok_share"} {
		r.samples[n] = len(passes)
	}
	r.note("passes=%d; latency limit %.0f ms; miss_p50_ms and miss_p90_ms are Harrell-Davis estimates over the passes (a p90 is valid only with >=100 samples)", len(passes), limitMS)
}

// noteOverhead reports the tracing overhead of a batch workload: the
// traced pass's wall time minus the untraced median.
func noteOverhead(r *result, traced float64, untraced []passStats) {
	var walls []float64
	for _, p := range untraced {
		walls = append(walls, p.Wall)
	}
	r.note("tracing overhead: traced result_s %.4f s - untraced median %.4f s (n=%d) = %+.4f s",
		traced, hdMedian(walls), len(walls), traced-hdMedian(walls))
}

// tracedBatch runs the traced pass of a batch workload after its
// untraced passes and reports the tracing overhead: the traced pass's
// wall time minus the untraced median.
func tracedBatch(e *env, r *result, untraced []passStats, spec childSpec, check func(childSpec) error) (passStats, error) {
	ps, started, err := spawnPass(e, spec)
	if err != nil {
		return ps, err
	}
	if err := check(spec); err != nil {
		r.problem("traced pass: %v", err)
		r.failed++
	}
	r.attempted++
	noteOverhead(r, ps.Wall, untraced)
	e.tr.adopt("pass", started, ps.Spans)
	r.setRuntime(ps.Runtime)
	return ps, os.RemoveAll(spec.Out)
}
