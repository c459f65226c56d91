// Package core is the paper's analysis pipeline: it vets the crawled
// dataset (pages successful in all profiles), builds the five dependency
// trees per page, cross-compares them, and computes every table and figure
// of the evaluation (§4, §5, appendices E–G).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
)

// PageAnalysis holds one vetted page's trees and their cross-comparison.
type PageAnalysis struct {
	Key dataset.PageKey
	// Trees follows Analysis.Profiles order; with partial vetting
	// (Options.MinSuccessProfiles) failed profiles are simply absent, so
	// use TreeFor for profile lookups.
	Trees []*tree.Tree
	Cmp   *treediff.Comparison
}

// TreeFor returns the page's tree for a profile, or nil.
func (pa *PageAnalysis) TreeFor(profile string) *tree.Tree {
	for _, t := range pa.Trees {
		if t.Profile == profile {
			return t
		}
	}
	return nil
}

// Analysis is the fully-computed experiment analysis.
type Analysis struct {
	ds       *dataset.Dataset
	filter   *filterlist.List
	profiles []string

	pages   []*PageAnalysis
	vetting Vetting
	// siteKeys holds each site's pre-interned key cache — a columnar
	// block's, or one built from the site's visits — which tree building
	// and attribution scoring both read, so neither re-normalizes a URL
	// per request. Nil for merged partials; consumers then fall back to
	// plain normalization.
	siteKeys map[string]*urlutil.KeyCache
	// siteRank maps site → Tranco rank for the Appendix F bucket analysis
	// (may be empty when unknown).
	siteRank map[string]int
	// metrics times the derived analysis phases (nil-safe).
	metrics *metrics.Registry
	// workers is Options.Workers resolved: the width of the per-page pool
	// and of the derived scans that fan out over pages (ProfilePairTable,
	// Attribution).
	workers int
}

// phaseTimer times one derived analysis phase (case studies, stability)
// under "analysis.<name>_ms"; usage: defer a.phaseTimer("stability")().
func (a *Analysis) phaseTimer(name string) func() {
	return a.metrics.Histogram("analysis." + name + "_ms").Time()
}

// Options configures Analyze, New and NewFromPartials.
type Options struct {
	// Profiles fixes the tree ordering; defaults to the dataset's sorted
	// profile names (a source that fills the dataset as it goes must set
	// it). The first profile whose name is "Sim1" is used as the
	// Table 6 reference regardless of order.
	Profiles []string
	// SiteRank supplies Tranco ranks for the bucket analysis.
	SiteRank map[string]int
	// MinSuccessProfiles relaxes the paper's vetting for the no-vetting
	// ablation: pages succeed with at least this many profiles (0 = the
	// paper's rule, all profiles must succeed).
	MinSuccessProfiles int
	// AllowDegraded admits visits that succeeded but were truncated by an
	// injected fault (Visit.Clean() false). Off by default: the paper's
	// vetting demands consistently *clean* loads, and a half-observed
	// page would register as dissimilarity that is an artifact of the
	// measurement, not the page.
	AllowDegraded bool
	// TreeBuilder overrides the default builder (ablations on node
	// identity and attribution signals). The Filter option is applied on
	// top of it.
	TreeBuilder *tree.Builder
	// AllowEmpty tolerates an analysis with zero vetted pages. The default
	// treats that as an error (a whole-experiment analysis with nothing to
	// report is a misconfiguration), but a shard's slice of the page-key
	// space can legitimately be empty or entirely excluded by vetting.
	AllowEmpty bool
	// Workers bounds the worker pool that fans the per-page work —
	// vetting, tree building, cross-comparison — out over CPUs; the
	// pages are independent, so the pipeline is embarrassingly parallel.
	// Results are merged back in page-key order, making the analysis
	// byte-identical for every worker count. 0 or negative =
	// runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, if non-nil, receives progress counters and phase timings
	// (metric names are listed in the internal/metrics package comment).
	Metrics *metrics.Registry
	// Context, if non-nil, cancels the per-page analysis between pages —
	// the hook a job server needs to abort a long analysis mid-flight.
	// The analysis returns the context's error when it fires. A tracer carried by
	// the context (trace.NewContext) is picked up when Tracer is nil.
	Context context.Context
	// Tracer, if non-nil, records analysis spans (analyze.vet,
	// analyze.build per profile, analyze.compare with treediff.intern /
	// treediff.fill children) on each page's trace. Timestamps come from
	// a deterministic work-proportional cost model, not the wall clock,
	// so traces stay byte-identical across worker counts.
	Tracer *trace.Tracer
}

// New builds the analysis of an in-memory dataset: vetting, tree
// construction, cross-comparison. filter may be nil (no tracking
// classification). It is Analyze over Sites(ds, opts).
func New(ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, error) {
	return Analyze(ds, Sites(ds, opts), filter, opts)
}

// Site is one site's share of the analysis input: its page groups sorted
// by page URL, all of one site, and the site's key cache (nil: unkeyed
// builds).
type Site struct {
	Pages []*dataset.PageVisits
	Keys  *urlutil.KeyCache
}

// Source feeds an analysis its sites: it calls yield once per site, in
// ascending site order, and stops at the first error yield returns and
// returns it. Any error a source returns ends the analysis and comes back
// from Analyze as is.
type Source func(yield func(Site) error) error

// Sites is the source of an in-memory dataset: ds's pages grouped by site
// in page-key order. The sites' key caches are built up front on
// opts.Workers goroutines from every URL string the analysis looks up in
// their visits.
func Sites(ds *dataset.Dataset, opts Options) Source {
	return func(yield func(Site) error) error {
		profiles := opts.Profiles
		if len(profiles) == 0 {
			profiles = ds.Profiles()
		}
		pages := ds.Pages()
		var sites []Site
		for i := 0; i < len(pages); {
			j := i + 1
			for j < len(pages) && pages[j].Key.Site == pages[i].Key.Site {
				j++
			}
			sites = append(sites, Site{Pages: pages[i:j]})
			i = j
		}
		parallelFor(contextOf(opts), resolveWorkers(opts.Workers), len(sites), func(i int) {
			sites[i].Keys = siteKeyCache(sites[i].Pages, profiles)
		})
		for _, s := range sites {
			if err := yield(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// siteKeyCache builds one site's key cache from every URL string the
// analysis looks up in its visits: page and request URLs, redirect
// sources, frame URLs, call-stack URLs and ground-truth parents. Profiles
// are read in analysis order, so the ids are deterministic.
func siteKeyCache(pages []*dataset.PageVisits, profiles []string) *urlutil.KeyCache {
	var raws []string
	for _, pv := range pages {
		for _, prof := range profiles {
			v := pv.ByProfile[prof]
			if v == nil {
				continue
			}
			raws = append(raws, v.PageURL)
			for i := range v.Requests {
				q := &v.Requests[i]
				raws = append(raws, q.URL, q.RedirectFrom, q.FrameURL, q.TrueParentURL)
				for _, f := range q.CallStack {
					raws = append(raws, f.URL)
				}
			}
		}
	}
	return urlutil.BuildKeyCache(raws)
}

// pageQueuePerWorker sizes the page queue between a source and the pool:
// while the pool works through that many queued pages per worker, the
// source decodes its next site.
const pageQueuePerWorker = 16

// pageJob is one queued page: its group, its site's key cache and the
// slot its result goes into.
type pageJob struct {
	pv   *dataset.PageVisits
	keys *urlutil.KeyCache
	out  *pageResult
}

// Analyze builds the analysis of the sites src yields: vetting, tree
// construction and cross-comparison per page. ds must hold the visits of
// those sites by the time Analyze returns — the derived analyses (timing,
// static/dynamic, case studies) read raw visits back from it — so a
// source decoding from disk adds each site's visits to ds as it yields
// the site. filter may be nil (no tracking classification).
//
// One pool of Options.Workers goroutines lives across all sites and takes
// pages from a bounded queue; src runs on the caller's goroutine, so it
// prepares site i+1 while the pool works on site i. Each page's result
// goes into a per-site slot, and the slots are merged in arrival order
// once the pool drains. Sites must arrive in ascending order, which makes
// that order the page-key order and the analysis byte-identical in every
// export for any worker count and any source. A source error comes back
// as is; a canceled Options.Context makes yield return the context's
// error and the pool skip the pages still queued. Either way Analyze
// returns no analysis, and no goroutine it started outlives it.
func Analyze(ds *dataset.Dataset, src Source, filter *filterlist.List, opts Options) (*Analysis, error) {
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = ds.Profiles()
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: dataset has no profiles")
	}
	a := &Analysis{
		ds:       ds,
		filter:   filter,
		profiles: profiles,
		siteKeys: make(map[string]*urlutil.KeyCache),
		siteRank: opts.SiteRank,
		metrics:  opts.Metrics,
		workers:  resolveWorkers(opts.Workers),
	}
	w := newPageWorker(filter, opts, profiles)
	ctx := contextOf(opts)

	queue := make(chan pageJob, a.workers*pageQueuePerWorker)
	var wg sync.WaitGroup
	for g := 0; g < a.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if ctx.Err() == nil {
					*j.out = w.analyze(j.pv, j.keys)
				}
			}
		}()
	}
	drain := sync.OnceFunc(func() {
		close(queue)
		wg.Wait()
	})
	defer drain()

	var slots [][]pageResult
	lastSite := ""
	err := src(func(s Site) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(s.Pages) == 0 {
			return nil
		}
		site := s.Pages[0].Key.Site
		if len(slots) > 0 && site <= lastSite {
			return fmt.Errorf("core: site %q arrived after %q; the analysis requires ascending site order", site, lastSite)
		}
		for _, pv := range s.Pages {
			if pv.Key.Site != site {
				return fmt.Errorf("core: page of site %q in the pages of %q", pv.Key.Site, site)
			}
		}
		lastSite = site
		a.siteKeys[site] = s.Keys
		slot := make([]pageResult, len(s.Pages))
		slots = append(slots, slot)
		for i, pv := range s.Pages {
			queue <- pageJob{pv: pv, keys: s.Keys, out: &slot[i]}
		}
		return nil
	})
	drain()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analysis canceled: %w", err)
	}
	// Merge in slot order (= page-key order) and aggregate the vetting
	// tally; doing both after the pool drains keeps the result — counts
	// included — independent of worker scheduling.
	for _, slot := range slots {
		for _, r := range slot {
			a.vetting.count(r.excluded)
			if r.pa != nil {
				a.pages = append(a.pages, r.pa)
			}
		}
	}
	for reason, n := range map[string]int{
		ExcludeMissing:  a.vetting.ExcludedMissing,
		ExcludeFailed:   a.vetting.ExcludedFailed,
		ExcludeDegraded: a.vetting.ExcludedDegraded,
		ExcludeBuild:    a.vetting.ExcludedBuild,
	} {
		opts.Metrics.Counter("analysis.pages.excluded." + reason).Add(int64(n))
	}
	if len(a.pages) == 0 && !opts.AllowEmpty {
		return nil, fmt.Errorf("core: no page was crawled cleanly by all %d profiles (%d excluded: %d missing, %d failed, %d degraded, %d build)",
			len(a.profiles), a.vetting.Excluded(), a.vetting.ExcludedMissing,
			a.vetting.ExcludedFailed, a.vetting.ExcludedDegraded, a.vetting.ExcludedBuild)
	}
	return a, nil
}

// newPageWorker resolves the per-page inputs Options configures.
func newPageWorker(filter *filterlist.List, opts Options, profiles []string) *pageWorker {
	builder := opts.TreeBuilder
	if builder == nil {
		builder = &tree.Builder{}
	}
	builder.Filter = filter
	minSuccess := opts.MinSuccessProfiles
	if minSuccess <= 0 || minSuccess > len(profiles) {
		minSuccess = len(profiles)
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = trace.TracerFrom(opts.Context)
	}
	return &pageWorker{
		profiles:      profiles,
		builder:       builder,
		minSuccess:    minSuccess,
		allowDegraded: opts.AllowDegraded,
		tracer:        tracer,
		pagesSeen:     opts.Metrics.Counter("analysis.pages"),
		pagesOK:       opts.Metrics.Counter("analysis.pages.vetted"),
		trees:         opts.Metrics.Counter("analysis.trees"),
		treesFail:     opts.Metrics.Counter("analysis.trees.failed"),
		pageMS:        opts.Metrics.Histogram("analysis.page_ms"),
	}
}

// contextOf returns Options.Context, or the background context when it
// is nil.
func contextOf(opts Options) context.Context {
	if opts.Context == nil {
		return context.Background()
	}
	return opts.Context
}

// resolveWorkers maps Options.Workers to a pool width: 0 or negative
// means runtime.GOMAXPROCS(0).
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// parallelFor calls fn(i) for every i in [0, n) on up to workers
// goroutines, inline when that is one or fewer, and stops handing out
// indices once ctx is done. Callers write each result into slot i and
// merge the slots in index order afterwards, which makes the outcome
// independent of scheduling and of the worker count.
func parallelFor(ctx context.Context, workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// pageWorker carries the read-only inputs and metric instruments of the
// per-page analysis; a single value is shared by all pool goroutines
// (the builder, filter list, and instruments are concurrency-safe).
type pageWorker struct {
	profiles      []string
	builder       *tree.Builder
	minSuccess    int
	allowDegraded bool
	tracer        *trace.Tracer

	pagesSeen, pagesOK, trees, treesFail *metrics.Counter
	pageMS                               *metrics.Histogram
}

// Analysis span timestamps are simulated: a work-proportional cost model
// on a per-page cursor, not the wall clock, so exported traces are
// byte-identical for every worker count. The base plants the analysis
// block past the crawl's timeline (offset tail ~6 min + retry budget);
// the per-unit costs are arbitrary but fixed — span *proportions* carry
// the signal (a 400-request page's build span is 4× a 100-request one's).
const (
	analysisBaseUS      = 600_000_000 // 10 simulated minutes
	vetCostUSPerProfile = 50
	buildCostUSPerReq   = 20
	internCostUSPerNode = 2
	fillCostUSPerNode   = 5
)

// analyzeSpans instruments one page's analysis on its trace (the same
// trace the crawl opened for the page, joined by key). Nil when tracing
// is off or the page was sampled out.
type analyzeSpans struct {
	tr     *trace.Trace
	cursor int64
}

func (w *pageWorker) startSpans(pv *dataset.PageVisits) *analyzeSpans {
	tr := w.tracer.Trace("page", pv.Key.Site+"|"+pv.Key.PageURL)
	if tr == nil {
		return nil
	}
	return &analyzeSpans{tr: tr, cursor: analysisBaseUS}
}

// vet records the vetting span: one eligibility sweep over the profiles.
func (s *analyzeSpans) vet(profiles, eligible int, excluded string) {
	if s == nil {
		return
	}
	sp := s.tr.Span(nil, "analyze.vet", "", s.cursor)
	sp.SetAttrInt("profiles", profiles).SetAttrInt("eligible", eligible)
	if excluded != "" {
		sp.SetAttr("excluded", excluded)
	}
	s.cursor += int64(profiles) * vetCostUSPerProfile
	sp.End(s.cursor)
}

// build records one profile's tree-build span, costed by request count.
func (s *analyzeSpans) build(profile string, requests int, t *tree.Tree, err error) {
	if s == nil {
		return
	}
	sp := s.tr.Span(nil, "analyze.build", profile, s.cursor)
	sp.SetAttr("profile", profile).SetAttrInt("requests", requests)
	s.cursor += int64(requests)*buildCostUSPerReq + buildCostUSPerReq
	if err != nil {
		sp.SetAttr("error", "build failed")
	} else {
		sp.SetAttrInt("nodes", t.NodeCount())
	}
	sp.End(s.cursor)
}

// compare records the cross-comparison span with the treediff kernel's
// two internal stages as children: interning (costed by total input
// nodes) and the per-node fill (costed by union nodes).
func (s *analyzeSpans) compare(trees []*tree.Tree, cmp *treediff.Comparison) {
	if s == nil {
		return
	}
	totalNodes := 0
	for _, t := range trees {
		totalNodes += t.NodeCount()
	}
	sp := s.tr.Span(nil, "analyze.compare", "", s.cursor)
	sp.SetAttrInt("trees", len(trees)).SetAttrInt("union_nodes", len(cmp.Nodes))
	intern := s.tr.Span(sp, "treediff.intern", "", s.cursor)
	intern.SetAttrInt("nodes", totalNodes)
	s.cursor += int64(totalNodes) * internCostUSPerNode
	intern.End(s.cursor)
	fill := s.tr.Span(sp, "treediff.fill", "", s.cursor)
	fill.SetAttrInt("nodes", len(cmp.Nodes))
	s.cursor += int64(len(cmp.Nodes)) * fillCostUSPerNode
	fill.End(s.cursor)
	sp.End(s.cursor)
}

// pageResult is one slot of the merge: the page's analysis when it was
// vetted, or the exclusion reason (one of the Exclude* constants) when
// it was dropped.
type pageResult struct {
	pa       *PageAnalysis
	excluded string
}

// analyze vets one page group, builds its trees, and cross-compares them.
// A page that fails vetting yields a nil analysis plus the most severe
// exclusion reason among its visits. The three stages run back to back
// per page (vetting → build → compare) and each is traced; the exclusion
// ranking is a max over reasons, so splitting the stages cannot change
// which reason wins. keys is the page's site key cache.
func (w *pageWorker) analyze(pv *dataset.PageVisits, keys *urlutil.KeyCache) pageResult {
	defer w.pageMS.Time()()
	w.pagesSeen.Inc()
	spans := w.startSpans(pv)
	pa := &PageAnalysis{Key: pv.Key}
	worst := ""
	flag := func(reason string) {
		if exclusionRank(reason) > exclusionRank(worst) {
			worst = reason
		}
	}
	// Vetting: the per-profile eligibility sweep (the paper's "successfully
	// and consistently visited" rule).
	type candidate struct {
		profile string
		v       *measurement.Visit
	}
	var eligible []candidate
	for _, prof := range w.profiles {
		v := pv.ByProfile[prof]
		switch {
		case v == nil:
			flag(ExcludeMissing)
		case !v.Success:
			flag(ExcludeFailed)
		case !v.Clean() && !w.allowDegraded:
			flag(ExcludeDegraded)
		default:
			eligible = append(eligible, candidate{profile: prof, v: v})
		}
	}
	spans.vet(len(w.profiles), len(eligible), worst)
	// Tree construction, one tree per eligible profile.
	for _, c := range eligible {
		t, err := w.builder.BuildKeyed(c.v, keys)
		spans.build(c.profile, len(c.v.Requests), t, err)
		if err != nil {
			// Success flags guarantee requests; a build failure means
			// a malformed record — skip the visit rather than abort.
			w.treesFail.Inc()
			flag(ExcludeBuild)
			continue
		}
		w.trees.Inc()
		pa.Trees = append(pa.Trees, t)
	}
	if len(pa.Trees) < w.minSuccess {
		if worst == "" {
			worst = ExcludeBuild
		}
		return pageResult{excluded: worst}
	}
	// Cross-comparison over the page's trees.
	pa.Cmp = treediff.Compare(pa.Trees)
	spans.compare(pa.Trees, pa.Cmp)
	w.pagesOK.Inc()
	return pageResult{pa: pa}
}

// Profiles returns the profile order used for tree indexing.
func (a *Analysis) Profiles() []string { return a.profiles }

// Pages returns the vetted page analyses.
func (a *Analysis) Pages() []*PageAnalysis { return a.pages }

// Vetting returns the vetting-stage tally: pages seen, vetted, and
// excluded by reason.
func (a *Analysis) Vetting() Vetting { return a.vetting }

// Dataset returns the underlying dataset.
func (a *Analysis) Dataset() *dataset.Dataset { return a.ds }

// profileIndex returns the tree index of a profile name, -1 if absent.
func (a *Analysis) profileIndex(name string) int {
	for i, p := range a.profiles {
		if p == name {
			return i
		}
	}
	return -1
}

// eachNode visits every NodeInfo of every vetted page (including roots).
func (a *Analysis) eachNode(fn func(pa *PageAnalysis, ni *treediff.NodeInfo)) {
	for _, pa := range a.pages {
		for _, ni := range pa.Cmp.Nodes {
			fn(pa, ni)
		}
	}
}

// eachNonRootNode visits every non-root NodeInfo.
func (a *Analysis) eachNonRootNode(fn func(pa *PageAnalysis, ni *treediff.NodeInfo)) {
	for _, pa := range a.pages {
		rootKey := pa.Trees[0].Root.Key
		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey {
				continue
			}
			fn(pa, ni)
		}
	}
}
