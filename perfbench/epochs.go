package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"webmeasure"
	"webmeasure/internal/drift"
)

// epochsLimitMS is the epochs workload's latency limit per pass (about
// three times the pass time on the 2-CPU reference machine).
const epochsLimitMS = 10000

// monitorSpec is one monitor-mode experiment.
type monitorSpec struct {
	seed                 int64
	sites, pages, epochs int
}

func (m monitorSpec) config(epoch int) webmeasure.Config {
	return webmeasure.Config{
		Seed: m.seed, Sites: m.sites, PagesPerSite: m.pages, FaultProfile: "light", Epoch: epoch,
		Workers: poolWidth, SiteWorkers: poolWidth,
	}
}

// epochReference is what the monitor must write, computed without the
// service: Run, DriftBaseline().Encode(), drift.Diff and the default
// rule engine, epoch by epoch.
type epochReference struct {
	baselines []string // digest per epoch
	alerts    string   // digest of alerts.jsonl
	pages     int      // page groups analyzed over all epochs
	results   []*webmeasure.Results
}

func referenceEpochs(ctx context.Context, m monitorSpec, keep bool) (epochReference, error) {
	var ref epochReference
	engine, err := drift.NewEngine(drift.DefaultRules())
	if err != nil {
		return ref, err
	}
	var (
		prev   *drift.Baseline
		alerts []byte
	)
	for ep := 0; ep < m.epochs; ep++ {
		res, err := webmeasure.Run(ctx, m.config(ep))
		if err != nil {
			return ref, err
		}
		b := res.DriftBaseline()
		data, err := b.Encode()
		if err != nil {
			return ref, err
		}
		ref.baselines = append(ref.baselines, digestBytes(data))
		ref.pages += res.Summary().Pages
		if prev != nil {
			d, err := drift.Diff(prev, b)
			if err != nil {
				return ref, err
			}
			for _, a := range engine.Evaluate(d) {
				line, err := json.Marshal(a)
				if err != nil {
					return ref, err
				}
				alerts = append(append(alerts, line...), '\n')
			}
		}
		if keep {
			ref.results = append(ref.results, res)
		}
		prev = b
	}
	ref.alerts = digestBytes(alerts)
	return ref, nil
}

// checkState compares a monitor's state directory with the reference.
func (ref epochReference) checkState(dir string) error {
	for ep, want := range ref.baselines {
		got, err := digestFile(filepath.Join(dir, fmt.Sprintf("baseline-e%04d.json", ep)))
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("baseline of epoch %d: digest %.12s, reference %.12s", ep, got, want)
		}
	}
	got, err := digestFile(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		return err
	}
	if got != ref.alerts {
		return fmt.Errorf("alerts.jsonl: digest %.12s, reference %.12s", got, ref.alerts)
	}
	return nil
}

// monitorPass is one epochs pass: a fresh cmd/serve in monitor mode on a
// fresh state directory, timed from launch until /debug/drift reports
// every epoch done.
type monitorPass struct {
	wall, cpu, rss float64
	epochMS        []float64
	rt             runtimeSample
}

func runMonitor(e *env, m monitorSpec, dir string, traced bool) (monitorPass, error) {
	var p monitorPass
	t0 := time.Now()
	srv, err := startServer(e,
		"-monitor-epochs", strconv.Itoa(m.epochs), "-monitor-sites", strconv.Itoa(m.sites), "-monitor-pages", strconv.Itoa(m.pages),
		"-monitor-faults", "light", "-monitor-seed", fmt.Sprint(m.seed), "-state-dir", dir)
	if err != nil {
		return p, err
	}
	done, last := 0, t0
	deadline := t0.Add(150 * time.Second)
	for {
		var st struct {
			EpochsDone int    `json:"epochs_done"`
			Done       bool   `json:"done"`
			LastError  string `json:"last_error"`
		}
		if err := srv.getJSON("/debug/drift", &st); err != nil && time.Since(t0) > 20*time.Second {
			srv.kill()
			return p, err
		}
		if now := time.Now(); st.EpochsDone > done {
			// Split the interval evenly if a poll saw several epochs finish.
			per := ms(now.Sub(last)) / float64(st.EpochsDone-done)
			for ; done < st.EpochsDone; done++ {
				p.epochMS = append(p.epochMS, per)
			}
			last = now
		}
		if st.Done {
			if st.LastError != "" {
				srv.kill()
				return p, fmt.Errorf("monitor: %s", st.LastError)
			}
			break
		}
		if time.Now().After(deadline) {
			srv.kill()
			return p, fmt.Errorf("monitor did not finish within 150 s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.wall = time.Since(t0).Seconds()
	if p.cpu, err = procCPU(srv.pid()); err == nil {
		p.rss, err = peakRSSMiB(strconv.Itoa(srv.pid()))
	}
	if err == nil && traced {
		var m1 memStats
		if m1, err = srv.memStats(); err == nil {
			p.rt = runtimeDelta(memStats{}, m1, runtime.NumCPU())
		}
	}
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	return p, err
}

// universeSeeds derives n distinct universe seeds from a workload seed.
func universeSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var out []int64
	for len(out) < n {
		if s := rng.Int63n(1<<40) + 1; !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// runEpochs: recurring monitor epochs on cmd/serve. A run monitors
// several universes drawn from the workload seed, one per set-up, and
// pass i monitors universe i mod their count. How long a pass takes
// depends on which sites a universe holds, so a median over passes of one
// universe would move with the seed; over several it moves far less.
func runEpochs(ctx context.Context, e *env) (*result, error) {
	var (
		specs  []monitorSpec
		refs   []epochReference
		setups []float64
	)
	for k, seed := range universeSeeds(e.opt.seed, e.sz.setupReps) {
		m := monitorSpec{seed: seed, sites: e.sz.epochSites, pages: e.sz.epochPages, epochs: e.sz.epochs}
		t0 := time.Now()
		// The traced pass and the drift replays use the first universe.
		ref, err := referenceEpochs(ctx, m, e.tr != nil && k == 0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		specs, refs = append(specs, m), append(refs, ref)
	}
	r := newResult()
	r.set("setup_s", hdMedian(setups))
	r.samples["setup_s"] = len(setups)

	var (
		passes []passStats
		oks    []bool
	)
	pass := func(i, k int, traced bool) (monitorPass, bool, error) {
		dir := filepath.Join(e.work, "state-"+strconv.Itoa(i))
		p, err := runMonitor(e, specs[k], dir, traced)
		if err != nil {
			return p, false, err
		}
		ok := true
		if err := refs[k].checkState(dir); err != nil {
			r.problem("pass %d: %v", i, err)
			ok = false
		}
		return p, ok, os.RemoveAll(dir)
	}
	ph := newPhase(e.opt.seconds)
	for i := 0; ph.next(); i++ {
		k := i % len(specs)
		p, ok, err := pass(i, k, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, passStats{Wall: p.wall, CPU: p.cpu, RSS: p.rss, Items: refs[k].pages})
		oks = append(oks, ok)
	}
	batchEndToEnd(r, passes, oks, epochsLimitMS)
	if e.tr == nil {
		return r, nil
	}
	// The traced pass differs only in reading the server's MemStats after
	// its timer stops; the monitor itself runs uninstrumented.
	p, ok, err := pass(len(passes), 0, true)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if !ok {
		r.failed++
	}
	noteOverhead(r, p.wall, passes)
	r.set("service.epoch_ms", median(p.epochMS))
	r.samples["service.epoch_ms"] = len(p.epochMS)
	r.setRuntime(p.rt)
	if err := driftReplay(e, r, refs[0].results); err != nil {
		return nil, err
	}
	return r, layerSweep(ctx, e, r, specs[0].config(0))
}

// monitorProbe measures service.epoch_ms for a workload that does not run
// the monitor: two small epochs on the workload's seed.
func monitorProbe(e *env, r *result) error {
	sz := sizePresets["tiny"]
	m := monitorSpec{seed: e.opt.seed, sites: sz.epochSites, pages: sz.epochPages, epochs: sz.epochs}
	p, err := runMonitor(e, m, filepath.Join(e.work, "probe-state"), false)
	if err != nil {
		return err
	}
	r.setIfAbsent("service.epoch_ms", median(p.epochMS))
	r.samples["service.epoch_ms"] = len(p.epochMS)
	return nil
}
