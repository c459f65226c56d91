package core

import (
	"encoding/json"
	"io"

	"webmeasure/internal/stats"
)

// The fixed experiment design the derived results are computed against:
// Table 6 compares every profile to ReferenceProfile, the §4.4/§5.2
// interaction contrasts use NoActionProfile, §4.4's identical-setup pair
// is SameConfigPair, and Appendix C measures timeouts against
// PageTimeoutMS (the paper's 30 s page timeout).
const (
	ReferenceProfile = "Sim1"
	NoActionProfile  = "NoAction"
	PageTimeoutMS    = 30_000
)

// SameConfigPair is the identically configured profile pair of §4.4.
var SameConfigPair = [2]string{"Sim1", "Sim2"}

// Export is the single computed result model of an analysis: every table,
// figure, test and case study, derived once. The text report, the CSV
// tables and the JSON bundle are three renderings of it. The model is
// built in two stages: Export computes the bundle, every section
// result.json carries (plus the test errors it flattens), and Complete
// adds the sections only the text report and the CSV tables read, tagged
// json:"-". A caller that renders only JSON stops after the first stage.
type Export struct {
	CrawlSummary    CrawlSummary           `json:"crawl_summary"`
	TreeOverview    TreeOverview           `json:"tree_overview"`
	DepthSim        []DepthSimilarityRow   `json:"depth_similarity"`
	ResourceChains  []ResourceChainRow     `json:"resource_chains"`
	ChainStability  ChainStability         `json:"chain_stability"`
	ProfileTotals   []ProfileTotalsRow     `json:"profile_totals"`
	ProfilePairs    []ProfilePairRow       `json:"profile_pairs"`
	RankBuckets     *RankBucketResult      `json:"rank_buckets,omitempty"`
	NodeTypeVolume  []NodeTypeVolumeRow    `json:"node_type_volume"`
	SimByDepth      []SimilarityByDepthRow `json:"similarity_by_depth"`
	ChildStats      ChildStats             `json:"child_stats"`
	SubframeImpact  SubframeImpact         `json:"subframe_impact"`
	PartyAppearance PartyAppearance        `json:"party_appearance"`
	UniqueNodes     UniqueNodesResult      `json:"unique_nodes"`
	CookieStudy     CookieStudyResult      `json:"cookie_study"`
	TrackingStudy   TrackingStudyResult    `json:"tracking_study"`
	Tests           exportTests            `json:"statistical_tests"`
	Stability       StabilityReport        `json:"stability"`
	StaticDynamic   StaticDynamicReport    `json:"static_dynamic"`
	Timing          TimingReport           `json:"timing"`
	SameConfig      SameConfigComparison   `json:"same_config"`

	// StatTests keeps the three tests with their errors, which the text
	// report prints verbatim; Tests is its marshalable form.
	StatTests StatisticalTests `json:"-"`
	// RankBucketsErr is RankBuckets' test error, cleared from RankBuckets
	// because error values do not marshal.
	RankBucketsErr error `json:"-"`

	// The sections below are filled in by Complete.

	// Profiles is the analysis' profile order (also the pairwise
	// matrix's row and column order).
	Profiles              []string               `json:"-"`
	Attribution           AttributionReport      `json:"-"`
	DepthBreadth          *stats.Histogram2D     `json:"-"`
	SimilarityDist        SimilarityDistribution `json:"-"`
	TypeSharesByParentSim TypeShareBySimilarity  `json:"-"`
	TypeSharesByChildSim  TypeShareBySimilarity  `json:"-"`
	PairwiseMatrix        [][]float64            `json:"-"`
	TypeDepth             []TypeDepthRow         `json:"-"`
	// ChildrenByDepth is Fig. 8 over nodes with at least one child.
	ChildrenByDepth []ChildrenByDepthRow `json:"-"`
}

// exportTests flattens StatisticalTests' error fields into strings so the
// bundle marshals cleanly.
type exportTests struct {
	ChildrenVsSimilarity *stats.TestResult `json:"children_vs_similarity,omitempty"`
	InteractionDepth     *stats.TestResult `json:"interaction_depth,omitempty"`
	TypeEffect           *stats.TestResult `json:"type_effect,omitempty"`
	Errors               []string          `json:"errors,omitempty"`
}

// ExportOptions parameterizes Export.
type ExportOptions struct {
	// RankBoundaries enables the rank-bucket section.
	RankBoundaries []int
}

// Export computes the bundle stage of the result model: every section
// the JSON bundle carries.
func (a *Analysis) Export(opts ExportOptions) *Export {
	e := &Export{
		CrawlSummary:    a.CrawlSummary(),
		TreeOverview:    a.TreeOverview(),
		DepthSim:        a.DepthSimilarityTable(),
		ResourceChains:  a.ResourceChainTable(),
		ChainStability:  a.ChainStability(),
		ProfileTotals:   a.ProfileTotals(),
		ProfilePairs:    a.ProfilePairTable(ReferenceProfile),
		NodeTypeVolume:  a.NodeTypeVolume(),
		SimByDepth:      a.SimilarityByDepth(),
		ChildStats:      a.ChildStats(),
		SubframeImpact:  a.SubframeImpact(),
		PartyAppearance: a.PartyAppearance(),
		UniqueNodes:     a.UniqueNodes(),
		CookieStudy:     a.CookieStudy(NoActionProfile),
		TrackingStudy:   a.TrackingStudy(),
		Stability:       a.Stability(),
		StaticDynamic:   a.StaticDynamic(),
		Timing:          a.Timing(PageTimeoutMS),
		SameConfig:      a.CompareSameConfig(SameConfigPair[0], SameConfigPair[1]),
		StatTests:       a.RunTests(ReferenceProfile, NoActionProfile),
	}
	if len(opts.RankBoundaries) > 0 {
		rb := a.RankBuckets(opts.RankBoundaries)
		if rb.TestError != nil {
			e.RankBucketsErr = rb.TestError
			e.Tests.Errors = append(e.Tests.Errors, "rank buckets: "+rb.TestError.Error())
			rb.TestError = nil
		}
		e.RankBuckets = &rb
	}
	tests := e.StatTests
	if tests.ChildrenVsSimilarityErr == nil {
		r := tests.ChildrenVsSimilarity
		e.Tests.ChildrenVsSimilarity = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "wilcoxon: "+tests.ChildrenVsSimilarityErr.Error())
	}
	if tests.InteractionDepthErr == nil {
		r := tests.InteractionDepth
		e.Tests.InteractionDepth = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "mann-whitney: "+tests.InteractionDepthErr.Error())
	}
	if tests.TypeEffectErr == nil {
		r := tests.TypeEffect
		e.Tests.TypeEffect = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "kruskal-wallis: "+tests.TypeEffectErr.Error())
	}
	return e
}

// Complete returns the full result model: a copy of bundle, which Export
// computed on this analysis, with the sections only the text report and
// the CSV tables read filled in. Attribution, which rebuilds the tree of
// every vetted visit, dominates their cost.
func (a *Analysis) Complete(bundle *Export) *Export {
	e := *bundle
	e.Profiles = a.Profiles()
	e.Attribution = a.Attribution()
	e.DepthBreadth = a.DepthBreadthHistogram()
	e.SimilarityDist = a.SimilarityDistribution()
	e.TypeSharesByParentSim = a.TypeSharesBySimilarity("parent", 8)
	e.TypeSharesByChildSim = a.TypeSharesBySimilarity("children", 8)
	_, e.PairwiseMatrix = a.ProfilePairwiseMatrix()
	e.TypeDepth = a.TypeDepthSimilarity(8)
	e.ChildrenByDepth = a.ChildrenByDepth(20, true)
	return &e
}

// WriteJSON marshals the bundle with indentation.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
