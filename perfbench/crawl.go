package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"webmeasure"
	"webmeasure/internal/dataset"
)

// crawlLimitMS is the crawl workload's latency limit per pass (about
// three times the pass time on the 2-CPU reference machine).
const crawlLimitMS = 6000

// runCrawl: the fresh crawl. Set-up computes the reference with a
// one-site-worker crawl into a JSONL stream; each pass streams a
// two-site-worker crawl with heavy faults into a columnar file in a fresh
// process, which is then read back through dataset.ReadCol.
func runCrawl(ctx context.Context, e *env) (*result, error) {
	cfg := webmeasure.Config{
		Seed: e.opt.seed, Sites: e.sz.crawlSites, PagesPerSite: e.sz.crawlPages, FaultProfile: "heavy",
		Workers: poolWidth, SiteWorkers: poolWidth,
	}
	type reference struct {
		digest string
		visits int
	}
	ref, setup, err := timedSetup(e.sz.setupReps, func() (reference, string, error) {
		one := cfg
		one.SiteWorkers = 1
		d := newDigest()
		w := dataset.NewJSONLSiteWriter(d)
		stats, err := webmeasure.CrawlStream(ctx, one, w)
		if err != nil {
			return reference{}, "", err
		}
		if err := w.Close(); err != nil {
			return reference{}, "", err
		}
		return reference{d.sum(), stats.VisitsTotal}, d.sum(), nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newResult()
	r.set("setup_s", setup)
	r.samples["setup_s"] = e.sz.setupReps

	mk := func(i int, traced bool) childSpec {
		return childSpec{
			Kind: "crawl", Seed: cfg.Seed, Sites: cfg.Sites, Pages: cfg.PagesPerSite, Faults: cfg.FaultProfile,
			Out: filepath.Join(e.work, "pass-"+strconv.Itoa(i)+".col"), Trace: traced,
		}
	}
	var (
		lastBytes int64
		// verified holds the digest of a columnar file already read back
		// and found equal to the reference: the same bytes need no second
		// read-back.
		verified string
	)
	check := func(spec childSpec) error {
		fileDigest, err := digestFile(spec.Out)
		if err != nil {
			return err
		}
		if fi, err := os.Stat(spec.Out); err == nil {
			lastBytes = fi.Size()
		}
		if fileDigest == verified {
			return nil
		}
		f, err := os.Open(spec.Out)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err := dataset.ReadCol(bufio.NewReader(f))
		if err != nil {
			return err
		}
		d := newDigest()
		if err := ds.WriteJSONL(d); err != nil {
			return err
		}
		if d.sum() != ref.digest || ds.Len() != ref.visits {
			return fmt.Errorf("columnar output read back as %d visits, digest %.12s; reference %d visits, %.12s",
				ds.Len(), d.sum(), ref.visits, ref.digest)
		}
		verified = fileDigest
		return nil
	}
	passes, oks, err := batchPasses(e, mk, check, r)
	if err != nil {
		return nil, err
	}
	batchEndToEnd(r, passes, oks, crawlLimitMS)
	if e.tr == nil {
		return r, nil
	}
	ps, err := tracedBatch(e, r, passes, mk(len(passes), true), check)
	if err != nil {
		return nil, err
	}
	setCrawler(r, ps.Spans, ps.Counters)
	r.set("colstore.encode_ms", totalMS(ps.Spans, "colstore.WriteSite")+totalMS(ps.Spans, "colstore.Close"))
	r.set("colstore.bytes", float64(lastBytes))
	// The analysis layers replay on an analyze-sized frame of the same
	// seed and fault profile, not on the 400-site output.
	sweep := cfg
	sweep.Sites, sweep.PagesPerSite = e.sz.analyzeSites, e.sz.analyzePages
	return r, layerSweep(ctx, e, r, sweep)
}

// setCrawler records the crawler layer from a CrawlStream span tree and
// the run's registry counters.
func setCrawler(r *result, spans []span, c map[string]float64) {
	r.setIfAbsent("crawler.self_ms", selfMS(spans, "crawler.CrawlStream"))
	r.setIfAbsent("crawler.visits", c["crawl.visits"])
	r.setIfAbsent("crawler.attempts", c["crawl.attempts"])
	if c["crawl.attempts"] > 0 {
		r.setIfAbsent("crawler.useful_ratio", c["crawl.visits"]/c["crawl.attempts"])
	}
	r.setIfAbsent("crawler.site_p50_ms", c["crawl.site_ms.p50"])
	r.setIfAbsent("crawler.site_p90_ms", c["crawl.site_ms.p90"])
	if _, ok := r.samples["crawler.site_p90_ms"]; !ok {
		r.samples["crawler.site_p50_ms"] = int(c["crawl.site_ms.count"])
		r.samples["crawler.site_p90_ms"] = int(c["crawl.site_ms.count"])
	}
}
