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

// Options configures New.
type Options struct {
	// Profiles fixes the tree ordering; defaults to the dataset's sorted
	// profile names. The first profile whose name is "Sim1" is used as the
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
	// New returns the context's error when it fires. A tracer carried by
	// the context (trace.NewContext) is picked up when Tracer is nil.
	Context context.Context
	// Tracer, if non-nil, records analysis spans (analyze.vet,
	// analyze.build per profile, analyze.compare with treediff.intern /
	// treediff.fill children) on each page's trace. Timestamps come from
	// a deterministic work-proportional cost model, not the wall clock,
	// so traces stay byte-identical across worker counts.
	Tracer *trace.Tracer
}

// New builds the analysis: vetting, tree construction, cross-comparison.
// filter may be nil (no tracking classification). The per-page work runs
// on Options.Workers goroutines; because pages are analyzed independently
// and merged in page-key order, the result is identical (byte for byte in
// every export) regardless of worker count.
func New(ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, error) {
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = ds.Profiles()
	}
	s, err := newStream(ds, filter, opts, profiles)
	if err != nil {
		return nil, err
	}
	// ds.Pages() is sorted by (site, page URL); the pool writes each
	// page's result into its matching slot, so the merge preserves that
	// deterministic order.
	pages := ds.Pages()
	var sites [][]*dataset.PageVisits
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j].Key.Site == pages[i].Key.Site {
			j++
		}
		sites = append(sites, pages[i:j])
		i = j
	}
	caches := make([]*urlutil.KeyCache, len(sites))
	parallelFor(s.ctx, s.a.workers, len(sites), func(i int) {
		caches[i] = siteKeyCache(sites[i], profiles)
	})
	s.a.siteKeys = make(map[string]*urlutil.KeyCache, len(sites))
	for i, group := range sites {
		s.a.siteKeys[group[0].Key.Site] = caches[i]
	}
	if err := s.addBatch(pages); err != nil {
		return nil, err
	}
	return s.Finish()
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

// Stream builds an Analysis incrementally, one batch of page groups at a
// time — the columnar-format path, where the facade decodes one site
// block, hands its page groups (plus the block's pre-interned key cache)
// to AddSite, and lets the decoder's transient memory be reclaimed
// before the next block. Batches must arrive in ascending site order so
// the accumulated pages match the page-key order the batch-free New
// produces; the result is then byte-identical in every export.
type Stream struct {
	a        *Analysis
	w        pageWorker
	ctx      context.Context
	opts     Options
	lastSite string
	seenSite bool
	done     bool
}

// NewStream starts an incremental analysis over ds, which the caller
// fills (dataset.Add) with the same visits whose page groups it feeds to
// AddSite — the derived analyses (timing, static/dynamic, case studies)
// read raw visits back from the dataset after the per-page pool runs.
// Unlike New, the profile order cannot be inferred from a dataset that
// does not exist yet, so Options.Profiles is required.
func NewStream(ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Stream, error) {
	if len(opts.Profiles) == 0 {
		return nil, fmt.Errorf("core: streaming analysis requires Options.Profiles (the dataset is not yet loaded to infer them)")
	}
	return newStream(ds, filter, opts, opts.Profiles)
}

func newStream(ds *dataset.Dataset, filter *filterlist.List, opts Options, profiles []string) (*Stream, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: dataset has no profiles")
	}
	a := &Analysis{
		ds:       ds,
		filter:   filter,
		profiles: profiles,
		siteRank: opts.SiteRank,
		metrics:  opts.Metrics,
		workers:  resolveWorkers(opts.Workers),
	}
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
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Stream{
		a: a,
		w: pageWorker{
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
		},
		ctx:  ctx,
		opts: opts,
	}, nil
}

// AddSite analyzes one site's page groups. pages must be sorted by page
// URL (dataset block order) and sites must arrive in ascending order —
// together these make the accumulated page order equal to the global
// page-key order. keys, when non-nil, is the site's pre-interned
// normalization cache (SiteBlock.KeyCache), which routes tree building
// through the int32-id fast path.
func (s *Stream) AddSite(site string, pages []*dataset.PageVisits, keys *urlutil.KeyCache) error {
	if s.done {
		return fmt.Errorf("core: AddSite after Finish")
	}
	if s.seenSite && site <= s.lastSite {
		return fmt.Errorf("core: site %q arrived after %q; streaming analysis requires ascending site order", site, s.lastSite)
	}
	s.lastSite, s.seenSite = site, true
	for _, pv := range pages {
		if pv.Key.Site != site {
			return fmt.Errorf("core: page of site %q in batch for %q", pv.Key.Site, site)
		}
	}
	if s.a.siteKeys == nil {
		s.a.siteKeys = make(map[string]*urlutil.KeyCache)
	}
	s.a.siteKeys[site] = keys
	return s.addBatch(pages)
}

// addBatch fans one batch of page groups over the worker pool and merges
// the results in slot order. Per-page work carries no cross-page state
// (the trace cost model runs on a per-page cursor; the decision tables
// hold pure functions of their keys), so splitting the page list into
// batches cannot change any output. Pages read their site's key cache
// from siteKeys (nil: unkeyed builds).
func (s *Stream) addBatch(pages []*dataset.PageVisits) error {
	results := make([]pageResult, len(pages))
	parallelFor(s.ctx, s.a.workers, len(pages), func(i int) {
		results[i] = s.w.analyze(pages[i], s.a.siteKeys[pages[i].Key.Site])
	})
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: analysis canceled: %w", err)
	}
	// Merge in slot order (= page-key order) and aggregate the vetting
	// tally; doing both after the pool drains keeps the result — counts
	// included — independent of worker scheduling.
	for _, r := range results {
		s.a.vetting.count(r.excluded)
		if r.pa != nil {
			s.a.pages = append(s.a.pages, r.pa)
		}
	}
	return nil
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

// Finish seals the stream and returns the analysis.
func (s *Stream) Finish() (*Analysis, error) {
	if s.done {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	s.done = true
	a, opts := s.a, s.opts
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
