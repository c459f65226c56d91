// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// measures the cost of the corresponding analysis over a shared, fully
// crawled dataset and logs the rows/series the paper reports on its first
// iteration:
//
//	go test -bench=. -benchmem
//
// Absolute values come from the synthetic web, not the authors' testbed;
// EXPERIMENTS.md records paper-vs-measured per experiment.
package webmeasure

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"webmeasure/internal/core"
	"webmeasure/internal/report"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// benchScale configures the shared benchmark experiment: large enough for
// stable shapes, small enough to crawl in a few seconds.
const (
	benchSeed  = 42
	benchSites = 60
	benchPages = 8
)

var (
	benchOnce sync.Once
	benchRes  *Results
)

func benchExperiment(b *testing.B) *Results {
	benchOnce.Do(func() {
		res, err := Run(context.Background(), Config{
			Seed: benchSeed, Sites: benchSites, PagesPerSite: benchPages,
		})
		if err != nil {
			panic(err)
		}
		benchRes = res
	})
	if benchRes == nil {
		b.Fatal("benchmark experiment failed")
	}
	return benchRes
}

// logSection renders one report section once per benchmark run.
func logSection(b *testing.B, res *Results, write func(*core.Export, *bytes.Buffer)) {
	b.Helper()
	var buf bytes.Buffer
	write(res.derived(), &buf)
	b.Log("\n" + buf.String())
}

func BenchmarkTable1Profiles(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteTable1(w, e) })
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		report.WriteTable1(&buf, res.derived())
	}
}

func BenchmarkTable2TreeOverview(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteTable2(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.TreeOverview()
	}
}

func BenchmarkTable3DepthSimilarity(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteTable3(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.DepthSimilarityTable()
	}
}

func BenchmarkTable4ResourceChains(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) {
		report.WriteTable4(w, e)
		report.WriteChainStability(w, e)
	})
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ResourceChainTable()
		_ = a.ChainStability()
	}
}

func BenchmarkTable5ProfileTotals(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteTable5(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ProfileTotals()
	}
}

func BenchmarkTable6ProfileDiffs(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) {
		report.WriteTable6(w, e)
		report.WriteSameConfig(w, e)
	})
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ProfilePairTable("Sim1")
	}
}

func BenchmarkTable7RankBuckets(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteTable7(w, e) })
	a := res.Analysis()
	bounds := res.RankBoundaries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.RankBuckets(bounds)
	}
}

func BenchmarkFigure1DepthBreadth(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure1(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.DepthBreadthHistogram()
	}
}

func BenchmarkFigure2SimilarityDistribution(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure2(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SimilarityDistribution()
	}
}

func BenchmarkFigure3NodeTypesByDepth(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure3(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.NodeTypeVolume()
	}
}

func BenchmarkFigure4SimilarityByDepth(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure4(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SimilarityByDepth()
	}
}

func BenchmarkFigure5TypeShares(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) {
		report.WriteFigure5(w, e)
		report.WriteSubframeImpact(w, e)
	})
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.TypeSharesBySimilarity("parent", 8)
		_ = a.TypeSharesBySimilarity("children", 8)
	}
}

// BenchmarkFigure6WorkedExample exercises the Appendix D example: three
// hand-built trees whose similarities the paper computes by hand (.77 for
// depth one, .3 for e's parent). The unit test asserting the exact values
// lives in internal/treediff.
func BenchmarkFigure6WorkedExample(b *testing.B) {
	trees := appendixDTrees(b)
	cmp := treediff.Compare(trees)
	root := cmp.Nodes["https://fig6.example/"]
	e := cmp.Nodes["https://fig6.example/e"]
	b.Logf("\nAppendix D worked example: depth-one similarity %.2f (paper .77), parent of e %.2f (paper .3)",
		root.ChildSim, e.ParentSim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = treediff.Compare(trees)
	}
}

func BenchmarkFigure7TypeDepthSimilarity(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure7(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.TypeDepthSimilarity(8)
	}
}

func BenchmarkFigure8ChildrenByDepth(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteFigure8(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.ChildrenByDepth(20, true)
	}
}

func BenchmarkStatisticalTests(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteStatisticalTests(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.RunTests("Sim1", "NoAction")
	}
}

func BenchmarkCase1UniqueNodes(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteCase1UniqueNodes(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.UniqueNodes()
	}
}

func BenchmarkCase2Cookies(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteCase2Cookies(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.CookieStudy("NoAction")
	}
}

func BenchmarkCase3Tracking(b *testing.B) {
	res := benchExperiment(b)
	logSection(b, res, func(e *core.Export, w *bytes.Buffer) { report.WriteCase3Tracking(w, e) })
	a := res.Analysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.TrackingStudy()
	}
}

// BenchmarkEndToEnd measures a complete small experiment: universe, crawl,
// vetting, trees, comparison — the pipeline a user pays for per run.
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(context.Background(), Config{Seed: int64(i + 1), Sites: 10, PagesPerSite: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §6) -------------------------------------

// ablationAnalysis rebuilds the shared dataset's analysis under a variant
// configuration and reports the headline similarity for comparison with the
// paper-faithful pipeline.
func ablationAnalysis(b *testing.B, opts core.Options) *core.Analysis {
	b.Helper()
	res := benchExperiment(b)
	base := res.Analysis()
	if opts.Profiles == nil {
		opts.Profiles = base.Dataset().Profiles()
	}
	a, err := core.New(base.Dataset(), nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAblationRawURLIdentity quantifies §3.2's normalization decision:
// with raw URLs as node identity, session identifiers make equal resources
// incomparable and similarity collapses.
func BenchmarkAblationRawURLIdentity(b *testing.B) {
	res := benchExperiment(b)
	normal := res.Analysis().TreeOverview()
	raw := ablationAnalysis(b, core.Options{TreeBuilder: &tree.Builder{RawURLIdentity: true}})
	rawOv := raw.TreeOverview()
	b.Logf("\nnode present in all profiles: normalized %.0f%% vs raw-URL %.0f%% (normalization recovers comparability)",
		normal.ShareInAll*100, rawOv.ShareInAll*100)
	if rawOv.ShareInAll >= normal.ShareInAll {
		b.Errorf("raw identity should reduce cross-profile presence: %.2f vs %.2f",
			rawOv.ShareInAll, normal.ShareInAll)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = raw.TreeOverview()
	}
}

// BenchmarkAblationNoCallStacks quantifies the call-stack signal: without
// it, scripts' children collapse to the root and the trees flatten.
func BenchmarkAblationNoCallStacks(b *testing.B) {
	res := benchExperiment(b)
	normal := res.Analysis().TreeOverview()
	flat := ablationAnalysis(b, core.Options{TreeBuilder: &tree.Builder{IgnoreCallStacks: true}})
	flatOv := flat.TreeOverview()
	b.Logf("\nmean tree depth: with call stacks %.2f vs frames/redirects only %.2f",
		normal.Depth.Mean, flatOv.Depth.Mean)
	if flatOv.Depth.Mean >= normal.Depth.Mean {
		b.Errorf("dropping call stacks should flatten trees: %.2f vs %.2f",
			flatOv.Depth.Mean, normal.Depth.Mean)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flat.TreeOverview()
	}
}

// BenchmarkAblationNoVetting quantifies the all-profiles vetting rule:
// admitting pages with ≥2 successful profiles inflates the page count but
// compares unequal snapshots.
func BenchmarkAblationNoVetting(b *testing.B) {
	res := benchExperiment(b)
	strict := res.Analysis()
	loose := ablationAnalysis(b, core.Options{MinSuccessProfiles: 2})
	b.Logf("\nvetted pages: strict %d vs ≥2-profiles %d",
		len(strict.Pages()), len(loose.Pages()))
	if len(loose.Pages()) <= len(strict.Pages()) {
		b.Error("loose vetting should admit more pages")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = loose.TreeOverview()
	}
}

// BenchmarkAblationChildlessDepthOne quantifies §3.2's exclusion of
// childless depth-one nodes: keeping them over-reports similarity.
func BenchmarkAblationChildlessDepthOne(b *testing.B) {
	res := benchExperiment(b)
	a := res.Analysis()
	var withAll, withChildren float64
	for _, r := range a.DepthSimilarityTable() {
		switch r.Label {
		case "across all depths (all nodes)":
			withAll = r.Sim
		case "across all depths (only nodes with children)":
			withChildren = r.Sim
		}
	}
	b.Logf("\nper-depth similarity: all nodes %.2f vs only-with-children %.2f", withAll, withChildren)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.DepthSimilarityTable()
	}
}

// appendixDTrees rebuilds the Fig. 6 example trees through the public
// builder (mirrors internal/treediff's fixture).
func appendixDTrees(b *testing.B) []*tree.Tree {
	b.Helper()
	const rootURL = "https://fig6.example/"
	u := func(n string) string { return rootURL + n }
	type edge = [2]string
	build := func(profile string, edges []edge) *tree.Tree {
		v := fig6Visit(profile, rootURL, edges)
		t, err := (&tree.Builder{}).Build(v)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	t1 := build("P1", []edge{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("e"), u("d")}, {u("x"), u("e")}, {u("y"), u("e")},
	})
	t2 := build("P2", []edge{
		{u("a"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("e"), u("d")}, {u("x"), u("e")}, {u("y"), u("e")},
	})
	t3 := build("P3", []edge{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("y"), u("d")},
	})
	return []*tree.Tree{t1, t2, t3}
}
