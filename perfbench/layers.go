package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"webmeasure"
	"webmeasure/internal/browser"
	"webmeasure/internal/colstore"
	"webmeasure/internal/dataset"
	"webmeasure/internal/drift"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
	"webmeasure/internal/webgen"
)

// layerSweep measures, after a traced pass, every layer the pass did not
// already report. Each replay calls the layer's exported functions on
// the workload's own frame (cfg), single-threaded, inside a span:
// a CrawlStream of the frame into a columnar file, then decode, key
// cache, tree build, filter matching, comparison, the analysis, derived
// tables, renderers and drift on that file. Workloads that never reach
// the service layer run a short serve window and a two-epoch monitor on
// their seed, so every traced run reports every metric; compare those
// values only within one workload.
func layerSweep(ctx context.Context, e *env, r *result, cfg webmeasure.Config) error {
	cfg.Workers, cfg.SiteWorkers = 1, 1
	tr := e.tr
	tr.run = "replay"

	if err := frameReplay(tr, r, cfg, e.sz); err != nil {
		return err
	}
	if err := browserReplay(tr, r, cfg, e.sz.browserSites); err != nil {
		return err
	}

	// Crawl the frame into a columnar file.
	path := filepath.Join(e.work, "sweep.col")
	reg := metrics.New()
	crawlCfg := cfg
	crawlCfg.Metrics = reg
	n0 := len(tr.spans)
	if _, err := crawlPass(ctx, crawlCfg, path, tr); err != nil {
		return err
	}
	spans := tr.spans[n0:]
	setCrawler(r, spans, registryCounters(reg))
	r.setIfAbsent("colstore.encode_ms", totalMS(spans, "colstore.WriteSite")+totalMS(spans, "colstore.Close"))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.setIfAbsent("colstore.bytes", float64(fi.Size()))

	// Decode every block through the footer index, then build each
	// block's key cache.
	var blocks []*colstore.SiteBlock
	decodeMS, err := tr.timed("colstore.Block", -1, func() error {
		rf, err := os.Open(path)
		if err != nil {
			return err
		}
		defer rf.Close()
		rd, err := dataset.OpenCol(rf, fi.Size())
		if err != nil {
			return err
		}
		for i := range rd.Index().Blocks {
			sb, err := rd.Block(i)
			if err != nil {
				return err
			}
			blocks = append(blocks, sb)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setIfAbsent("colstore.decode_ms", decodeMS)
	caches := make(map[string]*urlutil.KeyCache, len(blocks))
	kcMS, _ := tr.timed("urlutil.KeyCache", -1, func() error {
		for _, sb := range blocks {
			caches[sb.Site] = sb.KeyCache()
		}
		return nil
	})
	keys := 0
	for _, kc := range caches {
		keys += kc.NumKeys()
	}
	r.setIfAbsent("urlutil.keycache_ms", kcMS)
	r.setIfAbsent("urlutil.keys", float64(keys))

	// The analysis itself, with its counters.
	areg := metrics.New()
	analyzeCfg := cfg
	analyzeCfg.Metrics = areg
	var res *webmeasure.Results
	analyzeMS, err := tr.timed("core.LoadAndAnalyzeContext", -1, func() error {
		af, err := os.Open(path)
		if err != nil {
			return err
		}
		defer af.Close()
		res, err = webmeasure.LoadAndAnalyzeContext(ctx, af, analyzeCfg)
		return err
	})
	if err != nil {
		return err
	}
	counts := registryCounters(areg)
	r.setIfAbsent("core.analyze_ms", analyzeMS)
	r.setIfAbsent("core.pages", counts["analysis.pages"])
	r.setIfAbsent("core.vetted", counts["analysis.pages.vetted"])

	if err := pageReplays(tr, r, res, blocks, caches); err != nil {
		return err
	}
	derivedReplay(tr, r, res)

	out := filepath.Join(e.work, "sweep-out")
	n0 = len(tr.spans)
	if err := writeArtifacts(res, out, tr); err != nil {
		return err
	}
	spans = tr.spans[n0:]
	r.setIfAbsent("report.text_ms", totalMS(spans, "report.WriteReport"))
	r.setIfAbsent("report.json_ms", totalMS(spans, "report.WriteJSON"))
	r.setIfAbsent("report.csv_ms", totalMS(spans, "report.WriteCSVFiles"))
	size := int64(0)
	_ = filepath.WalkDir(out, func(_ string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if info, err := de.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	r.setIfAbsent("report.bytes", float64(size))

	if _, ok := r.metrics["drift.diff_ms"]; !ok {
		if err := driftReplay(e, r, []*webmeasure.Results{res}); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["service.job_p50_ms"]; !ok {
		if err := serveProbe(ctx, e, r); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
	}
	if _, ok := r.metrics["service.epoch_ms"]; !ok {
		if err := monitorProbe(e, r); err != nil {
			return fmt.Errorf("monitor probe: %w", err)
		}
	}
	return nil
}

// frameOf regenerates an experiment frame the way the facade does: the
// universe, the ranked list and its per-bucket sample.
func frameOf(cfg webmeasure.Config) (*webgen.Universe, []tranco.Entry) {
	wc := webgen.DefaultConfig(cfg.Seed)
	wc.PagesPerSite = cfg.PagesPerSite
	u := webgen.New(wc)
	size := cfg.Sites * 10
	list := tranco.Generate(size, cfg.Seed)
	bounds := tranco.ScaledBoundaries(size)
	per := cfg.Sites / len(bounds)
	if per < 1 {
		per = 1
	}
	return u, list.Sample(bounds, per, cfg.Seed)
}

// frameReplay times building the frame plus parsing its filter list, at
// the serve and the analyze sizes on the workload's seed (median of 3).
func frameReplay(tr *tracer, r *result, cfg webmeasure.Config, sz sizes) error {
	var durs []float64
	for i := 0; i < 3; i++ {
		d, err := tr.timed("webgen.frame", -1, func() error {
			for _, shape := range [][2]int{{sz.serveSites, sz.servePages}, {sz.analyzeSites, sz.analyzePages}} {
				c := cfg
				c.Sites, c.PagesPerSite = shape[0], shape[1]
				u, _ := frameOf(c)
				if _, bad := filterlist.Parse(u.FilterListText()); bad != 0 {
					return fmt.Errorf("generated filter list has %d bad rules", bad)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		durs = append(durs, d)
	}
	r.setIfAbsent("webgen.frame_ms", median(durs))
	return nil
}

// browserReplay times (*browser.Browser).Visit on every page of the
// frame's first n sites under each of the five profiles.
func browserReplay(tr *tracer, r *result, cfg webmeasure.Config, n int) error {
	u, sample := frameOf(cfg)
	if n > len(sample) {
		n = len(sample)
	}
	var pages []*webgen.Page
	for _, entry := range sample[:n] {
		site := u.GenerateSiteAt(entry, cfg.Epoch)
		if site.Unreachable {
			continue
		}
		pages = append(append(pages, site.Landing), site.Pages...)
	}
	profiles := browser.DefaultProfiles()
	visits, requests := 0, 0
	d, _ := tr.timed("browser.Visit", -1, func() error {
		for i, p := range pages {
			for _, prof := range profiles {
				v := browser.New(prof).Visit(p, uint64(cfg.Seed)+uint64(i))
				visits++
				requests += len(v.Requests)
			}
		}
		return nil
	})
	if visits == 0 {
		return fmt.Errorf("browser replay: no reachable pages in the first %d sites", n)
	}
	r.setIfAbsent("browser.visit_ms", d/float64(visits))
	r.setIfAbsent("browser.requests", float64(requests))
	r.samples["browser.visit_ms"] = visits
	return nil
}

// pageReplays times the per-page layers over every vetted visit of the
// analysis: tree building with the block key caches, filter matching of
// every request through a fresh memo, and the cross-comparison of each
// page's trees.
func pageReplays(tr *tracer, r *result, res *webmeasure.Results, blocks []*colstore.SiteBlock, caches map[string]*urlutil.KeyCache) error {
	a := res.Analysis()
	vetted := map[dataset.PageKey]map[string]bool{}
	for _, pa := range a.Pages() {
		profs := map[string]bool{}
		for _, t := range pa.Trees {
			profs[t.Profile] = true
		}
		vetted[pa.Key] = profs
	}
	type item struct {
		v  *measurement.Visit
		kc *urlutil.KeyCache
	}
	var items []item
	var reqs []filterlist.Request
	for _, sb := range blocks {
		for _, v := range sb.Visits {
			if vetted[dataset.PageKey{Site: v.Site, PageURL: v.PageURL}][v.Profile] {
				items = append(items, item{v, caches[sb.Site]})
				for _, rq := range v.Requests {
					reqs = append(reqs, filterlist.Request{URL: rq.URL, PageURL: v.PageURL, Type: filterType(rq.Type)})
				}
			}
		}
	}
	filter, bad := filterlist.Parse(res.Universe().FilterListText())
	if bad != 0 {
		return fmt.Errorf("generated filter list has %d bad rules", bad)
	}
	b := &tree.Builder{Filter: filter}
	nodes := 0
	buildMS, err := tr.timed("tree.BuildKeyed", -1, func() error {
		for _, it := range items {
			t, err := b.BuildKeyed(it.v, it.kc)
			if err != nil {
				return err
			}
			nodes += t.NodeCount()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setIfAbsent("tree.build_ms", buildMS)
	r.setIfAbsent("tree.nodes", float64(nodes))

	memo := filterlist.NewMemo(filter, 0)
	matchMS, _ := tr.timed("filterlist.Memo.Matches", -1, func() error {
		for _, q := range reqs {
			memo.Matches(q)
		}
		return nil
	})
	hits, misses := memo.Stats()
	r.setIfAbsent("filterlist.match_ms", matchMS)
	if hits+misses > 0 {
		r.setIfAbsent("filterlist.memo_hit_ratio", float64(hits)/float64(hits+misses))
	}

	compareMS, _ := tr.timed("treediff.Compare", -1, func() error {
		for _, pa := range a.Pages() {
			treediff.Compare(pa.Trees)
		}
		return nil
	})
	r.setIfAbsent("treediff.compare_ms", compareMS)
	return nil
}

// filterType maps a request's resource type onto the filter list's
// request types, as the tree builder does.
func filterType(t measurement.ResourceType) filterlist.RequestType {
	switch t {
	case measurement.TypeScript:
		return filterlist.TypeScript
	case measurement.TypeImage, measurement.TypeImageset:
		return filterlist.TypeImage
	case measurement.TypeStylesheet:
		return filterlist.TypeStylesheet
	case measurement.TypeSubFrame:
		return filterlist.TypeSubdocument
	case measurement.TypeXHR:
		return filterlist.TypeXMLHTTPRequest
	case measurement.TypeWebSocket:
		return filterlist.TypeWebSocket
	case measurement.TypeFont:
		return filterlist.TypeFont
	case measurement.TypeMedia:
		return filterlist.TypeMedia
	case measurement.TypeBeacon:
		return filterlist.TypePing
	case measurement.TypeMainFrame:
		return filterlist.TypeDocument
	case measurement.TypeCSPReport:
		return filterlist.TypeCSPReport
	default:
		return filterlist.TypeOther
	}
}

// derivedReplay calls every exported derived Analysis method once, with
// the renderers' arguments, and Attribution and ProfilePairTable again
// alone.
func derivedReplay(tr *tracer, r *result, res *webmeasure.Results) {
	a := res.Analysis()
	d, _ := tr.timed("core.derived", -1, func() error {
		a.CrawlSummary()
		a.TreeOverview()
		a.DepthSimilarityTable()
		a.ResourceChainTable()
		a.ChainStability()
		a.ProfileTotals()
		a.ProfilePairTable("Sim1")
		a.ProfilePairwiseMatrix()
		a.RankBuckets(res.RankBoundaries())
		a.NodeTypeVolume()
		a.SimilarityByDepth()
		a.SimilarityDistribution()
		a.DepthBreadthHistogram()
		a.TypeSharesBySimilarity("parent", 8)
		a.TypeSharesBySimilarity("children", 8)
		a.TypeDepthSimilarity(8)
		a.ChildrenByDepth(20, true)
		a.ChildStats()
		a.SubframeImpact()
		a.PartyAppearance()
		a.UniqueNodes()
		a.CookieStudy("NoAction")
		a.TrackingStudy()
		a.Stability()
		a.StaticDynamic()
		a.Attribution()
		a.Timing(30_000)
		a.CompareSameConfig("Sim1", "Sim2")
		a.RunTests("Sim1", "NoAction")
		a.EntityStability(res.Universe().OrganizationOf)
		return nil
	})
	r.setIfAbsent("core.derived_ms", d)
	at, _ := tr.timed("core.Attribution", -1, func() error { a.Attribution(); return nil })
	pp, _ := tr.timed("core.ProfilePairTable", -1, func() error { a.ProfilePairTable("Sim1"); return nil })
	r.setIfAbsent("core.attribution_ms", at)
	r.setIfAbsent("core.profile_pairs_ms", pp)
}

// driftReplay times the drift layer over a sequence of epoch results:
// snapshot and encode each, diff each consecutive pair (a single result
// is diffed against itself) and evaluate the default rules on every
// delta. Values are per epoch (snapshot, encode, bytes) or per delta.
func driftReplay(e *env, r *result, results []*webmeasure.Results) error {
	tr := e.tr
	var snaps []*drift.Baseline
	snapMS, _ := tr.timed("drift.Snapshot", -1, func() error {
		for _, res := range results {
			snaps = append(snaps, res.DriftBaseline())
		}
		return nil
	})
	size := 0
	encMS, err := tr.timed("drift.Encode", -1, func() error {
		for _, b := range snaps {
			data, err := b.Encode()
			if err != nil {
				return err
			}
			size += len(data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	pairs := [][2]int{{0, 0}}
	if len(snaps) > 1 {
		pairs = pairs[:0]
		for i := 1; i < len(snaps); i++ {
			pairs = append(pairs, [2]int{i - 1, i})
		}
	}
	var deltas []*drift.Delta
	diffMS, err := tr.timed("drift.Diff", -1, func() error {
		for _, p := range pairs {
			d, err := drift.Diff(snaps[p[0]], snaps[p[1]])
			if err != nil {
				return err
			}
			deltas = append(deltas, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	engine, err := drift.NewEngine(drift.DefaultRules())
	if err != nil {
		return err
	}
	rulesMS, _ := tr.timed("drift.Engine.Evaluate", -1, func() error {
		for _, d := range deltas {
			engine.Evaluate(d)
		}
		return nil
	})
	n, m := float64(len(snaps)), float64(len(deltas))
	r.setIfAbsent("drift.snapshot_ms", snapMS/n)
	r.setIfAbsent("drift.encode_ms", encMS/n)
	r.setIfAbsent("drift.baseline_bytes", float64(size)/n)
	r.setIfAbsent("drift.diff_ms", diffMS/m)
	r.setIfAbsent("drift.rules_ms", rulesMS/m)
	return nil
}
