package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"strconv"

	"webmeasure"
)

// analyzeLimitMS is the analyze workload's latency limit: a pass is one
// job, and it meets the limit when it finished correctly within this many
// milliseconds (about three times the pass time on the 2-CPU reference
// machine).
const analyzeLimitMS = 10000

// artifactDigests are the digests of the three rendered outputs.
type artifactDigests struct{ report, json, csv string }

func digestArtifacts(dir string) (artifactDigests, error) {
	var d artifactDigests
	var err error
	if d.report, err = digestFile(filepath.Join(dir, "report.txt")); err != nil {
		return d, err
	}
	if d.json, err = digestFile(filepath.Join(dir, "result.json")); err != nil {
		return d, err
	}
	d.csv, err = digestDir(filepath.Join(dir, "csv"))
	return d, err
}

func (d artifactDigests) compare(ref artifactDigests) error {
	for _, c := range []struct{ name, got, want string }{
		{"report", d.report, ref.report}, {"json", d.json, ref.json}, {"csv", d.csv, ref.csv},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s digest %.12s, reference %.12s", c.name, c.got, c.want)
		}
	}
	return nil
}

// runAnalyze: the stored-dataset batch. Set-up crawls the columnar input
// and renders the reference outputs through in-memory webmeasure.Run; each
// pass runs LoadAndAnalyzeContext + the three renderers in a fresh process.
func runAnalyze(ctx context.Context, e *env) (*result, error) {
	cfg := webmeasure.Config{
		Seed: e.opt.seed, Sites: e.sz.analyzeSites, PagesPerSite: e.sz.analyzePages,
		Workers: poolWidth, SiteWorkers: poolWidth,
	}
	input := filepath.Join(e.work, "input.col")
	ref, setup, err := timedSetup(e.sz.setupReps, func() (artifactDigests, string, error) {
		if _, err := crawlPass(ctx, cfg, input, nil); err != nil {
			return artifactDigests{}, "", err
		}
		res, err := webmeasure.Run(ctx, cfg)
		if err != nil {
			return artifactDigests{}, "", err
		}
		dir := filepath.Join(e.work, "reference")
		if err := writeArtifacts(res, dir, nil); err != nil {
			return artifactDigests{}, "", err
		}
		d, err := digestArtifacts(dir)
		if err != nil {
			return d, "", err
		}
		in, err := digestFile(input)
		return d, in + d.report + d.json + d.csv, err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	debug.FreeOSMemory()
	r := newResult()
	r.set("setup_s", setup)
	r.samples["setup_s"] = e.sz.setupReps

	mk := func(i int, traced bool) childSpec {
		return childSpec{
			Kind: "analyze", Seed: cfg.Seed, Sites: cfg.Sites, Pages: cfg.PagesPerSite,
			Input: input, Out: filepath.Join(e.work, "pass-"+strconv.Itoa(i)), Trace: traced,
		}
	}
	check := func(spec childSpec) error {
		got, err := digestArtifacts(spec.Out)
		if err != nil {
			return err
		}
		return got.compare(ref)
	}
	passes, oks, err := batchPasses(e, mk, check, r)
	if err != nil {
		return nil, err
	}
	batchEndToEnd(r, passes, oks, analyzeLimitMS)
	if e.tr == nil {
		return r, nil
	}
	ps, err := tracedBatch(e, r, passes, mk(len(passes), true), check)
	if err != nil {
		return nil, err
	}
	r.set("core.analyze_ms", totalMS(ps.Spans, "core.LoadAndAnalyzeContext"))
	r.set("core.pages", ps.Counters["analysis.pages"])
	r.set("core.vetted", ps.Counters["analysis.pages.vetted"])
	r.set("report.text_ms", totalMS(ps.Spans, "report.WriteReport"))
	r.set("report.json_ms", totalMS(ps.Spans, "report.WriteJSON"))
	r.set("report.csv_ms", totalMS(ps.Spans, "report.WriteCSVFiles"))
	sweep := cfg
	return r, layerSweep(ctx, e, r, sweep)
}
