// Package webmeasure reproduces the experiment of "On the Similarity of Web
// Measurements Under Different Experimental Setups" (Demir et al., IMC '23)
// end to end: it crawls a synthetic web with the paper's five browser
// profiles, builds a dependency tree per page visit, cross-compares the
// trees, and regenerates every table and figure of the evaluation.
//
// The package is a facade over the internal substrates (web generator,
// browser simulator, crawler, tree builder, comparison engine, statistics):
//
//	res, err := webmeasure.Run(ctx, webmeasure.Config{Seed: 42, Sites: 200})
//	if err != nil { ... }
//	res.WriteReport(os.Stdout)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package webmeasure

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"webmeasure/internal/browser"
	"webmeasure/internal/colstore"
	"webmeasure/internal/core"
	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/drift"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/trace"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// Config parameterizes an experiment. The zero value is completed with
// laptop-scale defaults by Run.
type Config struct {
	// Seed makes the whole experiment reproducible (default 1).
	Seed int64
	// Sites is the number of sites sampled from the ranked list across
	// the paper's five popularity buckets (default 100; the paper uses
	// 25,000).
	Sites int
	// TrancoSize is the size of the full ranked list sampled from
	// (default 10× Sites, mirroring the paper's 25k-of-500k sampling).
	TrancoSize int
	// PagesPerSite bounds the subpages visited per site in addition to
	// the landing page (default 10; the paper collects 25).
	PagesPerSite int
	// Instances is the number of parallel browser instances per profile
	// client (default 15, the paper's value).
	Instances int
	// Epoch selects the synthetic web's point in time (0 = base
	// snapshot); run the same seed at two epochs for a longitudinal
	// comparison.
	Epoch int
	// Profiles restricts the crawl and analysis to a named subset of the
	// paper's five browser profiles (Table 1). Empty means all five;
	// unknown names are an error.
	Profiles []string
	// Stateful preserves cookies across a site's pages within each client
	// (Appendix C's alternative design choice; default stateless).
	Stateful bool
	// FaultProfile names the deterministic fault-injection profile applied
	// to every page fetch (one of faults.Names(): "off", "light", "heavy";
	// empty = off). Faults are seeded from Seed, so the same configuration
	// reproduces the same failures byte for byte.
	FaultProfile string
	// Retry bounds the crawler's per-visit retry loop for transient
	// (injected) failures; the zero value uses the crawler's defaults.
	Retry crawler.RetryPolicy
	// Progress, if non-nil, receives crawl progress (sites done, total).
	Progress func(done, total int)
	// ResumeJSONL, if non-nil, streams a previously written dataset
	// (WriteDataset or WriteDatasetCol output — the format is sniffed
	// from the magic bytes); successful visits found there are reused so
	// an interrupted crawl continues where it stopped.
	ResumeJSONL io.Reader
	// Workers bounds the analysis worker pool that fans per-page work
	// (vetting, tree building, cross-comparison) out over CPUs. The
	// merge is deterministic, so every report/JSON/CSV export is
	// byte-identical for any worker count. 0 = GOMAXPROCS.
	Workers int
	// SiteWorkers bounds the crawl's site-level worker pool: that many
	// sites are crawled concurrently, each on isolated scratch state, and
	// a sequencer re-emits them in site-list order. Every artifact —
	// dataset bytes in both formats, report, metrics counters, trace
	// exports — is identical for any value. 0 = GOMAXPROCS.
	SiteWorkers int
	// Shards splits the experiment's page-key space into this many slices
	// for distributed shard-and-merge analysis (0 or 1 = the whole
	// experiment in one process). With Shards > 1 a Run or CrawlStream
	// covers only the slice ShardIndex selects; one Partial per shard is
	// then assembled with AssembleFromPartials into results byte-identical
	// to the single-process run. LoadAndAnalyzeContext runs every slice and
	// the merge itself.
	Shards int
	// ShardIndex selects this run's slice (0-based, < Shards) when Shards
	// is set.
	ShardIndex int
	// ShardSeed seeds the shard plan's page-key hash; every worker and the
	// coordinator must agree on it. 0 = Seed.
	ShardSeed int64
	// Metrics, if non-nil, collects live crawl and analysis counters and
	// timing histograms; snapshot it from another goroutine for progress
	// lines (see metrics.StartProgress).
	Metrics *metrics.Registry
	// Tracer, if non-nil, records one deterministic span trace per page
	// across the whole pipeline — crawl fetch/retry/backoff through tree
	// build, vetting, and comparison (see internal/trace). A tracer
	// carried by the run's context (trace.NewContext) is picked up when
	// this field is nil.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sites <= 0 {
		c.Sites = 100
	}
	if c.TrancoSize <= 0 {
		c.TrancoSize = c.Sites * 10
	}
	if c.TrancoSize < c.Sites {
		c.TrancoSize = c.Sites
	}
	if c.PagesPerSite <= 0 {
		c.PagesPerSite = 10
	}
	if c.Shards > 1 && c.ShardSeed == 0 {
		c.ShardSeed = c.Seed
	}
	return c
}

// shardPlan returns the config's shard plan (Count 1 when unsharded).
func (c Config) shardPlan() core.ShardPlan {
	count := c.Shards
	if count < 1 {
		count = 1
	}
	return core.ShardPlan{Count: count, Seed: c.ShardSeed}
}

// Results is a completed experiment: the collected dataset plus the full
// analysis.
type Results struct {
	cfg        Config
	universe   *webgen.Universe
	dataset    *dataset.Dataset
	analysis   *core.Analysis
	boundaries []int
	stats      crawler.Stats

	// The derived result model every renderer reads, built in two stages
	// on first use and shared by all later renders: bundle holds the
	// sections the JSON bundle carries, model completes it with the
	// sections only the text report and the CSV tables read.
	bundleOnce sync.Once
	bundle     *core.Export
	modelOnce  sync.Once
	model      *core.Export
}

// frame is the deterministic scaffolding every entry point regenerates
// from the config: the universe, the sampled site list, and the
// rank-bucket boundaries.
type frame struct {
	u          *webgen.Universe
	sample     []tranco.Entry
	boundaries []int
}

// experimentFrame regenerates cfg's frame. cfg must already carry
// defaults.
func experimentFrame(cfg Config) frame {
	u := webgen.New(webgenConfig(cfg))
	list := tranco.Generate(cfg.TrancoSize, cfg.Seed)
	boundaries := tranco.ScaledBoundaries(cfg.TrancoSize)
	perBucket := cfg.Sites / len(boundaries)
	if perBucket < 1 {
		perBucket = 1
	}
	return frame{u: u, sample: list.Sample(boundaries, perBucket, cfg.Seed), boundaries: boundaries}
}

// validateShard checks the Shards/ShardIndex pair.
func (c Config) validateShard() error {
	if c.Shards > 1 && (c.ShardIndex < 0 || c.ShardIndex >= c.Shards) {
		return fmt.Errorf("webmeasure: shard index %d out of range for %d shards", c.ShardIndex, c.Shards)
	}
	return nil
}

// Run executes the experiment: generate the universe, sample the ranked
// site list, crawl with the five profiles of Table 1, vet, and analyze.
// With Config.Shards > 1 the run restricts itself to shard ShardIndex's
// slice of the page-key space — every visit is a pure function of (seed,
// profile, page), so the shard's records are byte-identical to the full
// crawl's records for the same pages.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateShard(); err != nil {
		return nil, err
	}
	fr := experimentFrame(cfg)
	ccfg, err := cfg.crawlerConfig(fr)
	if err != nil {
		return nil, err
	}
	ds, crawlStats, err := crawler.Run(ctx, ccfg)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: crawl: %w", err)
	}
	res, err := analyze(ctx, cfg, fr, ds, nil)
	if err != nil {
		return nil, err
	}
	res.stats = crawlStats
	return res, nil
}

// crawlerConfig resolves the crawl inputs Run and CrawlStream share —
// resume dataset, profile selection, fault profile, shard page filter —
// into the crawler's configuration.
func (c Config) crawlerConfig(fr frame) (crawler.Config, error) {
	var resume *dataset.Dataset
	if c.ResumeJSONL != nil {
		var err error
		resume, err = dataset.ReadAuto(c.ResumeJSONL)
		if err != nil {
			return crawler.Config{}, fmt.Errorf("webmeasure: resume dataset: %w", err)
		}
	}
	profs, err := selectProfiles(c.Profiles)
	if err != nil {
		return crawler.Config{}, err
	}
	faultProfile, err := faults.ByName(c.FaultProfile)
	if err != nil {
		return crawler.Config{}, fmt.Errorf("webmeasure: %w", err)
	}
	var pageFilter func(site, pageURL string) bool
	if c.Shards > 1 {
		if c.Stateful && resume != nil {
			// A resumed stateful crawl reuses visits without replaying them,
			// so the shared cookie jar would diverge from the full crawl's.
			return crawler.Config{}, fmt.Errorf("webmeasure: sharded crawls cannot combine Stateful with ResumeJSONL")
		}
		pageFilter = c.shardPlan().Keep(c.ShardIndex)
	}
	return crawler.Config{
		Universe:    fr.u,
		Sites:       fr.sample,
		MaxPages:    c.PagesPerSite,
		Instances:   c.Instances,
		Profiles:    profs,
		Seed:        c.Seed,
		Epoch:       c.Epoch,
		Stateful:    c.Stateful,
		Faults:      faultProfile,
		Retry:       c.Retry,
		Progress:    c.Progress,
		Resume:      resume,
		Metrics:     c.Metrics,
		Tracer:      c.Tracer,
		PageFilter:  pageFilter,
		SiteWorkers: c.SiteWorkers,
	}, nil
}

// CrawlStream runs only the measurement, streaming each finished site
// into sink in site-list order instead of accumulating the whole dataset
// in memory: peak RSS is bounded by the crawl's in-flight reorder window,
// not the dataset size. The sink receives exactly the visit sequence
// Run's dataset would hold (a dataset.SiteWriter therefore produces the
// same bytes WriteDataset/WriteDatasetCol would); Close stays with the
// caller. Analysis runs separately — feed the written file to
// LoadAndAnalyzeContext.
func CrawlStream(ctx context.Context, cfg Config, sink crawler.SiteSink) (crawler.Stats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateShard(); err != nil {
		return crawler.Stats{}, err
	}
	ccfg, err := cfg.crawlerConfig(experimentFrame(cfg))
	if err != nil {
		return crawler.Stats{}, err
	}
	ccfg.Sink = sink
	ccfg.DiscardDataset = true
	_, stats, err := crawler.Run(ctx, ccfg)
	if err != nil {
		return stats, fmt.Errorf("webmeasure: crawl: %w", err)
	}
	return stats, nil
}

// analysisEnv derives the analysis inputs every entry point shares from
// the config and its frame: the generated filter list, and the core
// options with the site→rank map and the ordered profile names.
func analysisEnv(ctx context.Context, cfg Config, fr frame) (*filterlist.List, core.Options, error) {
	filter, skipped := filterlist.Parse(fr.u.FilterListText())
	if skipped != 0 {
		return nil, core.Options{}, fmt.Errorf("webmeasure: generated filter list has %d bad rules", skipped)
	}
	ranks := make(map[string]int, len(fr.sample))
	for _, e := range fr.sample {
		ranks[e.Site] = e.Rank
	}
	profs, err := selectProfiles(cfg.Profiles)
	if err != nil {
		return nil, core.Options{}, err
	}
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return filter, core.Options{
		Profiles: names,
		SiteRank: ranks,
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Context:  ctx,
		Tracer:   cfg.Tracer,
	}, nil
}

// analyze is the one analysis path: it runs the sites src yields through
// core.Analyze into Results over ds, which src fills as it goes. A nil src
// analyzes the pages ds already holds (core.Sites). The context cancels
// the per-page pool between pages.
func analyze(ctx context.Context, cfg Config, fr frame, ds *dataset.Dataset, src core.Source) (*Results, error) {
	filter, opts, err := analysisEnv(ctx, cfg, fr)
	if err != nil {
		return nil, err
	}
	// One shard's slice can legitimately vet down to nothing; the
	// coordinator judges emptiness after merging all shards.
	opts.AllowEmpty = cfg.Shards > 1
	if src == nil {
		src = core.Sites(ds, opts)
	}
	analysis, err := core.Analyze(ds, src, filter, opts)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	return &Results{
		cfg:        cfg,
		universe:   fr.u,
		dataset:    ds,
		analysis:   analysis,
		boundaries: fr.boundaries,
	}, nil
}

func webgenConfig(cfg Config) webgen.Config {
	wc := webgen.DefaultConfig(cfg.Seed)
	wc.PagesPerSite = cfg.PagesPerSite
	return wc
}

// selectProfiles resolves Config.Profiles against the paper's five
// default profiles, preserving the Table 1 order; empty selects all.
func selectProfiles(names []string) ([]browser.Profile, error) {
	all := browser.DefaultProfiles()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		found := false
		for _, p := range all {
			if p.Name == n {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("webmeasure: unknown profile %q", n)
		}
		want[n] = true
	}
	out := make([]browser.Profile, 0, len(want))
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// bundleModel returns the bundle stage of the result model, building it
// on the first call from any renderer on any goroutine. Each stage's
// build is one sample of the analysis.derived_ms histogram.
func (r *Results) bundleModel() *core.Export {
	r.bundleOnce.Do(func() {
		defer r.cfg.Metrics.Histogram("analysis.derived_ms").Time()()
		r.bundle = r.analysis.Export(core.ExportOptions{RankBoundaries: r.boundaries})
	})
	return r.bundle
}

// derived returns the complete result model, building it on top of the
// bundle stage on the first call.
func (r *Results) derived() *core.Export {
	r.modelOnce.Do(func() {
		bundle := r.bundleModel()
		defer r.cfg.Metrics.Histogram("analysis.derived_ms").Time()()
		r.model = r.analysis.Complete(bundle)
	})
	return r.model
}

// WriteReport renders every table and figure of the paper to w.
func (r *Results) WriteReport(w io.Writer) {
	report.WriteAll(w, r.derived())
}

// WriteDataset streams the raw visit records as JSON Lines (the released
// raw-data artifact of Appendix A).
func (r *Results) WriteDataset(w io.Writer) error {
	return r.dataset.WriteJSONL(w)
}

// WriteDatasetCol writes the raw visit records in the compact columnar
// format (internal/colstore): one block per site with interned strings
// and delta-coded columns, plus a footer index for site-granular seeks.
// ReadCol of the output reproduces WriteDataset's JSONL byte for byte.
func (r *Results) WriteDatasetCol(w io.Writer) error {
	return r.dataset.WriteCol(w)
}

// WriteJSON exports every analysis result as one machine-readable JSON
// bundle (deterministic for a fixed seed — diffable in CI).
func (r *Results) WriteJSON(w io.Writer) error {
	return r.bundleModel().WriteJSON(w)
}

// WriteCSVFiles exports every table and figure as CSV files into dir for
// external plotting.
func (r *Results) WriteCSVFiles(dir string) error {
	return report.WriteCSVFiles(dir, r.derived())
}

// WriteCSV streams every table and figure as one concatenated CSV
// document ("# <name>" section headers), the single-response form served
// over HTTP.
func (r *Results) WriteCSV(w io.Writer) error {
	return report.WriteCSV(w, r.derived())
}

// Summary is the headline outcome of an experiment.
type Summary struct {
	Sites       int
	Pages       int
	Visits      int
	VettedPages int
	VettedShare float64
	// ExcludedPages counts pages the vetting stage dropped; the Degraded
	// share is the part attributable to fault-truncated observations.
	ExcludedPages    int
	ExcludedDegraded int

	MeanNodesPerTree   float64
	MeanTreeDepth      float64
	MeanNodePresence   float64 // of 5 profiles
	ShareInAllProfiles float64
	ShareInOneProfile  float64

	FirstPartyDepthSimilarity float64
	ThirdPartyDepthSimilarity float64
	TrackingShare             float64
	UniqueNodeShare           float64
}

// Summary computes the headline numbers.
func (r *Results) Summary() Summary {
	cs := r.analysis.CrawlSummary()
	ov := r.analysis.TreeOverview()
	tr := r.analysis.TrackingStudy()
	un := r.analysis.UniqueNodes()
	var fpSim, tpSim float64
	for _, row := range r.analysis.DepthSimilarityTable() {
		switch row.Label {
		case "first-party nodes":
			fpSim = row.Sim
		case "third-party nodes":
			tpSim = row.Sim
		}
	}
	return Summary{
		Sites:            cs.Sites,
		Pages:            cs.Pages,
		Visits:           cs.Visits,
		VettedPages:      cs.VettedPages,
		VettedShare:      cs.VettedShare,
		ExcludedPages:    cs.Vetting.Excluded(),
		ExcludedDegraded: cs.Vetting.ExcludedDegraded,

		MeanNodesPerTree:   ov.Nodes.Mean,
		MeanTreeDepth:      ov.Depth.Mean,
		MeanNodePresence:   ov.MeanPresence,
		ShareInAllProfiles: ov.ShareInAll,
		ShareInOneProfile:  ov.ShareInOne,

		FirstPartyDepthSimilarity: fpSim,
		ThirdPartyDepthSimilarity: tpSim,
		TrackingShare:             tr.TrackingShare,
		UniqueNodeShare:           un.UniqueShare,
	}
}

// Analysis exposes the full analysis for advanced consumers (examples, the
// benchmark harness).
func (r *Results) Analysis() *core.Analysis { return r.analysis }

// Universe exposes the generated web universe.
func (r *Results) Universe() *webgen.Universe { return r.universe }

// DriftBaseline snapshots the analysis into a longitudinal drift
// baseline (see internal/drift): the per-epoch artifact the monitor
// persists and later diffs against other epochs of the same experiment.
func (r *Results) DriftBaseline() *drift.Baseline {
	cfg := r.cfg.withDefaults()
	return drift.Snapshot(r.analysis, drift.Meta{
		Epoch:        cfg.Epoch,
		Seed:         cfg.Seed,
		Sites:        cfg.Sites,
		TrancoSize:   cfg.TrancoSize,
		PagesPerSite: cfg.PagesPerSite,
		Profiles:     r.analysis.Profiles(),
		FaultProfile: cfg.FaultProfile,
	})
}

// Dataset exposes the collected visits, e.g. for streaming JSONL
// downloads (dataset.StreamJSONL) from a serving layer.
func (r *Results) Dataset() *dataset.Dataset { return r.dataset }

// RankBoundaries returns the rank-bucket boundaries used for sampling.
func (r *Results) RankBoundaries() []int { return r.boundaries }

// CrawlStats returns the crawler's bookkeeping (zero when the dataset was
// loaded rather than crawled).
func (r *Results) CrawlStats() crawler.Stats { return r.stats }

// LoadAndAnalyzeContext reads a dataset written by WriteDataset or
// WriteDatasetCol — the format is auto-detected from the magic bytes —
// and analyzes it. cfg must carry the same Seed/Sites/TrancoSize/
// PagesPerSite the crawl used, so the universe (and with it the filter
// list and rank sample) can be regenerated deterministically. The context
// cancels the analysis between pages.
//
// A columnar dataset is read through its footer index, whose blocks are
// listed in ascending site order whatever order the crawl streamed them
// in: each block is decoded, and its key cache built, while the pool
// analyzes the pages of the blocks before it, and the retained visits
// share the block's interned strings. A seekable input (an *os.File) is
// read in place; a non-seekable columnar stream is read into memory
// first.
//
// With Config.Shards > 1 the dataset goes through the distributed
// shard-and-merge pipeline inside one process: each slice of the
// page-key space is analyzed on its own (a columnar shard decodes only
// the blocks whose footer page lists meet its slice), every Partial
// round-trips through its wire encoding, and the merged Results are
// byte-identical in every export to the unsharded analysis.
func LoadAndAnalyzeContext(ctx context.Context, datasetIn io.Reader, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	in, err := openDataset(datasetIn)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	fr := experimentFrame(cfg)
	if cfg.Shards <= 1 {
		ds, src := in.source(nil)
		return analyze(ctx, cfg, fr, ds, src)
	}
	plan := cfg.shardPlan()
	parts := make([]*core.Partial, cfg.Shards)
	for i := range parts {
		shardCfg := cfg
		shardCfg.ShardIndex = i
		ds, src := in.source(plan.Keep(i))
		res, err := analyze(ctx, shardCfg, fr, ds, src)
		if err != nil {
			return nil, fmt.Errorf("webmeasure: shard %d/%d: %w", i, cfg.Shards, err)
		}
		part, err := res.Partial()
		if err != nil {
			return nil, err
		}
		// Round-trip through the wire form so the in-process path exercises
		// exactly what a remote worker ships.
		wire, err := part.Encode()
		if err != nil {
			return nil, err
		}
		if parts[i], err = core.DecodePartial(wire); err != nil {
			return nil, err
		}
	}
	return assemble(ctx, cfg, fr, parts)
}

// input is an opened dataset: a columnar file behind its footer reader,
// or a JSONL dataset held in memory.
type input struct {
	col *colstore.Reader
	ds  *dataset.Dataset
}

// openDataset opens r once in whichever format it holds.
func openDataset(r io.Reader) (input, error) {
	if ra, size, ok := readerAtSize(r); ok {
		head := make([]byte, len(colstore.Magic))
		if n, _ := ra.ReadAt(head, 0); colstore.Sniff(head[:n]) {
			colr, err := dataset.OpenCol(ra, size)
			return input{col: colr}, err
		}
	}
	format, rd, err := dataset.DetectFormat(r)
	if err != nil {
		return input{}, err
	}
	if format == dataset.FormatCol {
		raw, err := io.ReadAll(rd)
		if err != nil {
			return input{}, err
		}
		colr, err := dataset.OpenCol(bytes.NewReader(raw), int64(len(raw)))
		return input{col: colr}, err
	}
	ds, err := dataset.ReadJSONL(rd)
	return input{ds: ds}, err
}

// source returns the dataset that holds the input's pages keep accepts
// (nil keeps every page) and the source that feeds them to the analysis:
// nil for an in-memory dataset, which analyze reads through core.Sites.
// A columnar source decodes the blocks in footer order, skipping blocks
// whose page lists miss keep, and adds each kept visit to the dataset as
// it yields its site.
func (in input) source(keep func(site, pageURL string) bool) (*dataset.Dataset, core.Source) {
	if in.col == nil {
		if keep == nil {
			return in.ds, nil
		}
		return in.ds.FilterPages(func(k dataset.PageKey) bool { return keep(k.Site, k.PageURL) }), nil
	}
	ds := dataset.New()
	return ds, func(yield func(core.Site) error) error {
		for bi, meta := range in.col.Index().Blocks {
			if keep != nil && !slices.ContainsFunc(meta.Pages, func(p string) bool { return keep(meta.Site, p) }) {
				continue
			}
			sb, err := in.col.Block(bi)
			if err != nil {
				return fmt.Errorf("load dataset: %w", err)
			}
			visits := sb.Visits
			if keep != nil {
				visits = slices.DeleteFunc(slices.Clone(visits), func(v *measurement.Visit) bool { return !keep(v.Site, v.PageURL) })
			}
			for _, v := range visits {
				ds.Add(v)
			}
			if err := yield(core.Site{Pages: dataset.GroupVisits(visits), Keys: sb.KeyCache()}); err != nil {
				return err
			}
		}
		return nil
	}
}

// Partial exports this run's analysis as one shard's contribution to a
// distributed shard-and-merge analysis. The run must have been sharded
// (Config.Shards > 1); the partial carries the shard's vetted trees,
// vetting tally, and raw visits (metrics dumps and trace exports are
// attached by the caller, which owns those registries).
func (r *Results) Partial() (*core.Partial, error) {
	if r.cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: Partial requires a sharded run (Shards > 1)")
	}
	return r.analysis.Partial(r.cfg.shardPlan(), r.cfg.ShardIndex)
}

// AssembleFromPartials merges one Partial per shard into full Results,
// byte-identical in every export to a single-process run of the same
// config. cfg must carry the same experiment parameters the shard workers
// used (Seed, Sites, TrancoSize, PagesPerSite, Profiles, Shards,
// ShardSeed); the union dataset is rebuilt from the partials' visits in
// shard order.
func AssembleFromPartials(ctx context.Context, cfg Config, parts []*core.Partial) (*Results, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: AssembleFromPartials requires Shards > 1")
	}
	return assemble(ctx, cfg, experimentFrame(cfg), parts)
}

// assemble is AssembleFromPartials over an already generated frame. The
// context cancels the merge's tree rebuild.
func assemble(ctx context.Context, cfg Config, fr frame, parts []*core.Partial) (*Results, error) {
	filter, opts, err := analysisEnv(ctx, cfg, fr)
	if err != nil {
		return nil, err
	}
	analysis, err := core.NewFromPartials(nil, filter, opts, cfg.shardPlan(), parts)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: assemble: %w", err)
	}
	return &Results{
		cfg:        cfg,
		universe:   fr.u,
		dataset:    analysis.Dataset(),
		analysis:   analysis,
		boundaries: fr.boundaries,
	}, nil
}

// readerAtSize reports whether r supports random access from its start,
// returning the ReaderAt view and total size. Only a reader positioned
// at offset zero qualifies — a partially-consumed stream cannot be
// safely re-read by offset.
func readerAtSize(r io.Reader) (io.ReaderAt, int64, bool) {
	ras, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	})
	if !ok {
		return nil, 0, false
	}
	cur, err := ras.Seek(0, io.SeekCurrent)
	if err != nil || cur != 0 {
		return nil, 0, false
	}
	size, err := ras.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false
	}
	if _, err := ras.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false
	}
	return ras, size, true
}
