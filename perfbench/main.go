// Command perfbench is the repository's end-to-end benchmark. It drives
// the measurement pipeline only through its public surface — the
// webmeasure facade, exported internal/* calls, and cmd/serve over HTTP —
// on one of four workloads, checks every output against a second public
// path, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes every input size of the four workloads. full is the
// benchmark; tiny is the smoke test's.
type sizes struct {
	// setupReps is how many set-ups a run times; setup_s is their
	// median. epochs prepares a different universe in each.
	setupReps                  int
	analyzeSites, analyzePages int
	crawlSites, crawlPages     int
	serveSites, servePages     int
	hitSpecs, missSample       int
	epochs                     int
	epochSites, epochPages     int
	browserSites               int
	// probeSeconds is the length of the small serve window a traced run
	// of another workload uses to measure the service layer.
	probeSeconds float64
}

var sizePresets = map[string]sizes{
	"full": {
		setupReps:    3,
		analyzeSites: 100, analyzePages: 10,
		crawlSites: 400, crawlPages: 10,
		serveSites: 5, servePages: 3,
		hitSpecs: 4, missSample: 4,
		epochs:     4,
		epochSites: 120, epochPages: 3,
		browserSites: 10,
		probeSeconds: 2,
	},
	"tiny": {
		setupReps:    2,
		analyzeSites: 10, analyzePages: 3,
		crawlSites: 20, crawlPages: 3,
		serveSites: 5, servePages: 3,
		hitSpecs: 2, missSample: 2,
		epochs:     2,
		epochSites: 10, epochPages: 3,
		browserSites: 2,
		probeSeconds: 1,
	},
}

// Pool widths: every pool the benchmark configures is two wide, the
// CPU count of the machine the workloads were sized on, so that load
// never exceeds nproc on the reference machine.
const poolWidth = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
	outDir   string
	commit   string
	size     string
}

// env is one workload run's context.
type env struct {
	opt  options
	sz   sizes
	work string  // this run's scratch directory
	tr   *tracer // nil when untraced
	self string  // this executable, re-run for fresh-process passes
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt       options
		traceFlag = fs.Int("trace", 0, "1 = one traced run reporting the per-layer metrics")
		seconds   = fs.Int("seconds", 10, "how long the timed phase of a run measures")
		child     = fs.String("child", "", "internal: run one fresh-process pass (JSON spec)")
		calibrate = fs.Bool("calibrate", false, "measure the serve workload's miss capacity and exit")
	)
	fs.StringVar(&opt.workload, "workload", "", "analyze, crawl, serve, epochs, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.StringVar(&opt.serveBin, "serve-bin", "", "path to a built cmd/serve binary")
	fs.StringVar(&opt.workDir, "work", ".bench_build/work", "scratch directory for inputs and outputs")
	fs.StringVar(&opt.outDir, "out", ".bench_build/results", "directory for result records and span traces")
	fs.StringVar(&opt.commit, "commit", "unknown", "source revision stamped on every result")
	fs.StringVar(&opt.size, "size", "full", "input sizes: full or tiny (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, stdout, stderr)
	}
	opt.seconds = float64(*seconds)
	opt.trace = *traceFlag == 1
	sz, ok := sizePresets[opt.size]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: bad -size, -seconds or -trace")
		return 2
	}
	if opt.serveBin == "" {
		fmt.Fprintln(stderr, "perfbench: -serve-bin is required")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *calibrate {
		if err := calibrateServe(&env{opt: opt, sz: sz, self: self}, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: calibrate: %v\n", err)
			return 1
		}
		return 0
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = []string{"analyze", "crawl", "serve", "epochs"}
	}
	allCorrect := true
	for _, name := range names {
		wl, ok := workloads[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		res, err := runWorkload(name, wl, opt, sz, self, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		allCorrect = allCorrect && res.correct()
	}
	if !allCorrect {
		return 1
	}
	return 0
}

type workloadFunc func(ctx context.Context, e *env) (*result, error)

var workloads = map[string]workloadFunc{
	"analyze": runAnalyze,
	"crawl":   runCrawl,
	"serve":   runServe,
	"epochs":  runEpochs,
}

func runWorkload(name string, wl workloadFunc, opt options, sz sizes, self string, stdout io.Writer) (*result, error) {
	for _, d := range []string{opt.workDir, opt.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(opt.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{opt: opt, sz: sz, work: work, self: self}
	if opt.trace {
		e.tr = newTracer()
	}
	steal0, total0 := hostSteal()
	res, err := wl(context.Background(), e)
	if err != nil {
		return nil, err
	}
	// On a shared host, time the hypervisor gave to other guests slows
	// every timing here alike; the note lets a reader discount such runs.
	steal1, total1 := hostSteal()
	if total1 > total0 {
		res.note("host CPU steal during the run: %.1f%% of this machine's CPU time", 100*(steal1-steal0)/(total1-total0))
	}
	st := newStamp(opt, name)
	if err := res.print(stdout, st, opt.trace); err != nil {
		return nil, err
	}
	traceN := 0
	if opt.trace {
		traceN = 1
	}
	base := filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d-trace%d", name, opt.seed, traceN))
	if err := res.save(base+".json", st); err != nil {
		return nil, err
	}
	if e.tr != nil {
		if err := e.tr.write(base + ".spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stamp identifies the machine, toolchain, source and input of a result,
// so a claim can be re-checked on another seed or commit.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Size       string `json:"size"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(opt options, workload string) stamp {
	return stamp{
		Workload: workload, Seed: opt.seed, Seconds: int(opt.seconds), Trace: opt.trace, Size: opt.size,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: opt.commit,
	}
}

// result is one workload run's outcome.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile
	notes     []string
	// values holds the raw samples behind the metrics (per pass, per job),
	// saved with the record but not printed.
	values map[string][]float64
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}, values: map[string][]float64{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// setIfAbsent records a per-layer value measured by a replay or probe,
// unless the workload's own pass already measured it.
func (r *result) setIfAbsent(name string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.metrics[name] = v
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed output check; the operation it belongs to is
// counted as failed by the caller.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) selected(trace bool) (map[string]metricValue, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func (r *result) print(w io.Writer, st stamp, trace bool) error {
	sel, err := r.selected(trace)
	if err != nil {
		return err
	}
	sj, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", sj)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED  %s\n", p)
	}
	names := make([]string, 0, len(sel))
	for n := range sel {
		names = append(names, n)
	}
	sort.Strings(names)
	line := func(n string, v metricValue, suffix string) {
		s := fmt.Sprintf("%-28s %14.6g %s", n, v.Value, v.Unit)
		if c, ok := r.samples[n]; ok {
			s += fmt.Sprintf("  (n=%d%s)", c, suffix)
		}
		fmt.Fprintln(w, s)
	}
	for _, n := range names {
		line(n, sel[n], "")
	}
	if !trace {
		for _, d := range ungated {
			v, ok := r.metrics[d.Name]
			if !ok {
				return fmt.Errorf("metric not measured: %s", d.Name)
			}
			line(d.Name, metricValue{Value: v, Unit: d.Unit}, ", not bounded")
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, sel})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(last))
	return err
}

// save writes the full record — stamp, every metric measured, sample
// counts, notes and check failures — for later comparison.
func (r *result) save(path string, st stamp) error {
	all := make(map[string]metricValue, len(r.metrics))
	for n, v := range r.metrics {
		all[n] = metricValue{Value: v, Unit: unitOf(n)}
	}
	data, err := json.MarshalIndent(map[string]any{
		"stamp": st, "correct": r.correct(), "attempted": r.attempted, "failed": r.failed,
		"metrics": all, "samples": r.samples, "values": r.values, "notes": r.notes, "problems": r.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timedSetup runs a workload's set-up reps times and returns the last
// state with the median duration. Every repetition must yield the same
// digest: set-up is a pure function of the seed. discard, if non-nil,
// releases every state that is not returned, each after the next
// repetition's timer has stopped.
func timedSetup[T any](reps int, setup func() (T, string, error), discard func(T)) (T, float64, error) {
	var (
		st     T
		durs   []float64
		digest string
	)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, d, err := setup()
		if err == nil {
			durs = append(durs, time.Since(t0).Seconds())
			if i > 0 && d != digest {
				err = fmt.Errorf("set-up is not deterministic: digest %s then %s", digest, d)
				if discard != nil {
					discard(s)
				}
			}
		}
		if i > 0 && discard != nil {
			discard(st)
		}
		if err != nil {
			var zero T
			return zero, 0, err
		}
		st, digest = s, d
	}
	return st, hdMedian(durs), nil
}
