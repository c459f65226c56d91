package core

import (
	"context"
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// TreeOverview is Table 2: dimensions of the measured trees and the
// presence of nodes across profiles.
type TreeOverview struct {
	Nodes   stats.Summary
	Depth   stats.Summary
	Breadth stats.Summary

	// MeanPresence is the average number of profiles a node appears in.
	MeanPresence float64
	PresenceSD   float64
	ShareInAll   float64 // nodes present in every profile
	ShareInOne   float64 // nodes present in exactly one profile
	// PairwiseVariation is the mean share of differing data when comparing
	// two profiles (§4: "48% of the underlying data varies").
	PairwiseVariation float64
}

// TreeOverview computes Table 2 over all vetted trees.
func (a *Analysis) TreeOverview() TreeOverview {
	var nodes, depths, breadths []float64
	var presences []float64
	var inAll, inOne, total int
	var pairSim []float64

	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			nodes = append(nodes, float64(t.NodeCount()))
			depths = append(depths, float64(t.MaxDepth()))
			breadths = append(breadths, float64(t.Breadth()))
		}
		rootKey := pa.Trees[0].Root.Key
		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey {
				continue
			}
			total++
			presences = append(presences, float64(ni.Presence))
			if ni.Presence == len(pa.Trees) {
				inAll++
			}
			if ni.Presence == 1 {
				inOne++
			}
		}
		for i := 0; i < len(pa.Trees); i++ {
			for j := i + 1; j < len(pa.Trees); j++ {
				pairSim = append(pairSim, pa.Cmp.PairwisePresence(i, j))
			}
		}
	}

	ov := TreeOverview{
		Nodes:   stats.Summarize(nodes),
		Depth:   stats.Summarize(depths),
		Breadth: stats.Summarize(breadths),
	}
	ps := stats.Summarize(presences)
	ov.MeanPresence, ov.PresenceSD = ps.Mean, ps.SD
	if total > 0 {
		ov.ShareInAll = float64(inAll) / float64(total)
		ov.ShareInOne = float64(inOne) / float64(total)
	}
	ov.PairwiseVariation = 1 - stats.Mean(pairSim)
	return ov
}

// DepthSimilarityRow is one row of Table 3.
type DepthSimilarityRow struct {
	Label    string
	Category stats.SimilarityCategory
	Sim      float64
	SD       float64
	Max      float64
	Min      float64
}

// DepthSimilarityTable computes Table 3: node-set similarity per depth
// under the paper's five population filters, aggregated over pages.
func (a *Analysis) DepthSimilarityTable() []DepthSimilarityRow {
	fp, tp := tree.FirstParty, tree.ThirdParty
	filters := []struct {
		label string
		f     treediff.DepthFilter
	}{
		{"across all depths (all nodes)", treediff.DepthFilter{}},
		{"across all depths (only nodes with children)", treediff.DepthFilter{OnlyWithChildren: true}},
		{"nodes in all trees", treediff.DepthFilter{OnlyInAllTrees: true}},
		{"first-party nodes", treediff.DepthFilter{Party: &fp}},
		{"third-party nodes", treediff.DepthFilter{Party: &tp}},
	}
	rows := make([]DepthSimilarityRow, 0, len(filters))
	for _, flt := range filters {
		var sims []float64
		for _, pa := range a.pages {
			if sim, depths := pa.Cmp.DepthSimilarity(flt.f); depths > 0 {
				sims = append(sims, sim)
			}
		}
		s := stats.Summarize(sims)
		rows = append(rows, DepthSimilarityRow{
			Label:    flt.label,
			Category: stats.Categorize(s.Mean),
			Sim:      s.Mean,
			SD:       s.SD,
			Max:      s.Max,
			Min:      s.Min,
		})
	}
	return rows
}

// ResourceChainRow is one row of Table 4a/4b.
type ResourceChainRow struct {
	Type measurement.ResourceType
	// SameChainShare is the share of the type's nodes (present in all
	// trees, depth ≥ 2) loaded by an identical dependency chain everywhere
	// (Table 4a).
	SameChainShare float64
	// ParentSim is the type's mean parent similarity (Table 4b's
	// "similarity").
	ParentSim float64
	// N is the number of nodes behind the row.
	N int
}

// ResourceChainTable computes the per-resource-type dependency-chain
// stability of §4.2 (Tables 4a and 4b). Rows are sorted by descending
// SameChainShare; slice/sort by ParentSim for the 4b view.
func (a *Analysis) ResourceChainTable() []ResourceChainRow {
	type agg struct {
		n, same   int
		parentSim []float64
	}
	byType := map[measurement.ResourceType]*agg{}
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence != len(pa.Trees) || ni.MeanDepth() < 2 {
			return
		}
		g := byType[ni.Type]
		if g == nil {
			g = &agg{}
			byType[ni.Type] = g
		}
		g.n++
		if ni.ChainEqualAll {
			g.same++
		}
		g.parentSim = append(g.parentSim, ni.ParentSim)
	})
	rows := make([]ResourceChainRow, 0, len(byType))
	for ty, g := range byType {
		if g.n < 5 {
			continue // too few observations to rank
		}
		rows = append(rows, ResourceChainRow{
			Type:           ty,
			SameChainShare: float64(g.same) / float64(g.n),
			ParentSim:      stats.Mean(g.parentSim),
			N:              g.n,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SameChainShare != rows[j].SameChainShare {
			return rows[i].SameChainShare > rows[j].SameChainShare
		}
		return rows[i].Type < rows[j].Type
	})
	return rows
}

// ChainStability reports the §4.2 headline chain statistics.
type ChainStability struct {
	// SameChainShareAll: nodes (in all trees) with identical chains.
	SameChainShareAll float64
	// SameChainShareDeep: the same excluding depth-one nodes.
	SameChainShareDeep float64
	// UniqueChainShare: nodes with a chain observed in only one profile.
	UniqueChainShare float64
	// SameParentShare: nodes at the same depth in all trees loaded by the
	// same parent everywhere (the "61%" figure).
	SameParentShare float64
	// FirstParty/ThirdParty/Tracking/NonTracking same-chain shares.
	SameChainFP, SameChainTP          float64
	SameChainTracking, SameChainOther float64
}

// ChainStability computes the dependency-chain stability statistics.
func (a *Analysis) ChainStability() ChainStability {
	var all, same, deepN, deepSame, uniqueAny int
	var fpN, fpSame, tpN, tpSame, trN, trSame, ntN, ntSame int
	var sameDepthN, sameParentN int
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence != len(pa.Trees) {
			return
		}
		all++
		if ni.ChainEqualAll {
			same++
		}
		if ni.UniqueChains > 0 {
			uniqueAny++
		}
		if ni.MeanDepth() >= 2 {
			deepN++
			if ni.ChainEqualAll {
				deepSame++
			}
			if ni.Party == tree.FirstParty {
				fpN++
				if ni.ChainEqualAll {
					fpSame++
				}
			} else {
				tpN++
				if ni.ChainEqualAll {
					tpSame++
				}
			}
			if ni.Tracking {
				trN++
				if ni.ChainEqualAll {
					trSame++
				}
			} else {
				ntN++
				if ni.ChainEqualAll {
					ntSame++
				}
			}
		}
		if ni.SameDepth && ni.MeanDepth() >= 2 {
			sameDepthN++
			if ni.SameParentEverywhere {
				sameParentN++
			}
		}
	})
	share := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	return ChainStability{
		SameChainShareAll:  share(same, all),
		SameChainShareDeep: share(deepSame, deepN),
		UniqueChainShare:   share(uniqueAny, all),
		SameParentShare:    share(sameParentN, sameDepthN),
		SameChainFP:        share(fpSame, fpN),
		SameChainTP:        share(tpSame, tpN),
		SameChainTracking:  share(trSame, trN),
		SameChainOther:     share(ntSame, ntN),
	}
}

// ProfileTotalsRow is one row of Table 5.
type ProfileTotalsRow struct {
	Profile    string
	Nodes      int
	ThirdParty int
	Tracker    int
	MaxDepth   int
	MaxBreadth int
}

// ProfileTotals computes Table 5 over the vetted trees.
func (a *Analysis) ProfileTotals() []ProfileTotalsRow {
	rows := make([]ProfileTotalsRow, len(a.profiles))
	idx := map[string]int{}
	for i, p := range a.profiles {
		rows[i].Profile = p
		idx[p] = i
	}
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			r := &rows[idx[t.Profile]]
			r.Nodes += t.NodeCount()
			for _, n := range t.Nodes() {
				if n.Party == tree.ThirdParty {
					r.ThirdParty++
				}
				if n.Tracking {
					r.Tracker++
				}
			}
			if d := t.MaxDepth(); d > r.MaxDepth {
				r.MaxDepth = d
			}
			if b := t.Breadth(); b > r.MaxBreadth {
				r.MaxBreadth = b
			}
		}
	}
	return rows
}

// ProfilePairRow is one column of Table 6: profile `Other` compared to the
// reference profile (Sim1).
type ProfilePairRow struct {
	Other string

	FPChildrenPerfect float64
	FPChildrenNone    float64
	TPChildrenPerfect float64
	TPChildrenNone    float64
	FPParentPerfect   float64
	FPParentNone      float64
	TPParentPerfect   float64
	TPParentNone      float64

	// MeanParentSim: nodes at depth ≥ 2 (✻ in the paper's table).
	MeanParentSim float64
	// MeanChildSim: nodes with at least one child (✚).
	MeanChildSim float64
}

// ProfilePairTable computes Table 6: every profile against the reference
// (by name, typically "Sim1"). Pairs are compared on nodes present in both
// trees of a page. The per-page pair comparisons are independent, so they
// run on the analysis worker pool, one tally per page; the tallies merge
// in page order. Counts sum exactly and stats.Mean sorts its samples, so
// the table is bit-identical for every worker count.
func (a *Analysis) ProfilePairTable(reference string) []ProfilePairRow {
	if a.profileIndex(reference) < 0 {
		return nil
	}
	var others []string
	for _, p := range a.profiles {
		if p != reference {
			others = append(others, p)
		}
	}
	perPage := make([][]pairTally, len(a.pages))
	parallelFor(context.Background(), a.workers, len(a.pages), func(i int) {
		pa := a.pages[i]
		ref := pa.TreeFor(reference)
		if ref == nil {
			return
		}
		tallies := make([]pairTally, len(others))
		for j, other := range others {
			if oth := pa.TreeFor(other); oth != nil {
				tallies[j].compare(ref, oth)
			}
		}
		perPage[i] = tallies
	})
	var rows []ProfilePairRow
	for j, other := range others {
		var t pairTally
		for _, tallies := range perPage {
			if tallies != nil {
				t.merge(&tallies[j])
			}
		}
		rows = append(rows, t.row(other))
	}
	return rows
}

// pairTally accumulates one Table 6 column. Index p is the party (0
// first, 1 third), index k the similarity (0 children, 1 parent): n[p]
// counts the compared nodes, perfect and none those with similarity 1
// and 0. The samples feed the two means.
type pairTally struct {
	n                     [2]int
	perfect, none         [2][2]int
	parentSims, childSims []float64
}

// compare tallies one page's reference-vs-other tree pair.
func (t *pairTally) compare(ref, oth *tree.Tree) {
	pair := treediff.Compare([]*tree.Tree{ref, oth})
	rootKey := ref.Root.Key
	for key, ni := range pair.Nodes {
		if key == rootKey || ni.Presence != 2 {
			continue
		}
		p := 1
		if ni.Party == tree.FirstParty {
			p = 0
		}
		t.n[p]++
		for k, sim := range [2]float64{ni.ChildSim, ni.ParentSim} {
			if sim == 1 {
				t.perfect[p][k]++
			}
			if sim == 0 {
				t.none[p][k]++
			}
		}
		if ni.MeanDepth() >= 2 {
			t.parentSims = append(t.parentSims, ni.ParentSim)
		}
		if ni.HasChildAnywhere {
			t.childSims = append(t.childSims, ni.ChildSim)
		}
	}
}

// merge adds o's counts and appends its samples.
func (t *pairTally) merge(o *pairTally) {
	for p := range t.n {
		t.n[p] += o.n[p]
		for k := range t.perfect[p] {
			t.perfect[p][k] += o.perfect[p][k]
			t.none[p][k] += o.none[p][k]
		}
	}
	t.parentSims = append(t.parentSims, o.parentSims...)
	t.childSims = append(t.childSims, o.childSims...)
}

// row turns the merged tally into the Table 6 column for profile other.
func (t *pairTally) row(other string) ProfilePairRow {
	share := func(counts [2][2]int, p, k int) float64 {
		if t.n[p] == 0 {
			return 0
		}
		return float64(counts[p][k]) / float64(t.n[p])
	}
	return ProfilePairRow{
		Other:             other,
		FPChildrenPerfect: share(t.perfect, 0, 0),
		FPChildrenNone:    share(t.none, 0, 0),
		TPChildrenPerfect: share(t.perfect, 1, 0),
		TPChildrenNone:    share(t.none, 1, 0),
		FPParentPerfect:   share(t.perfect, 0, 1),
		FPParentNone:      share(t.none, 0, 1),
		TPParentPerfect:   share(t.perfect, 1, 1),
		TPParentNone:      share(t.none, 1, 1),
		MeanParentSim:     stats.Mean(t.parentSims),
		MeanChildSim:      stats.Mean(t.childSims),
	}
}

// RankBucketRow is one row of Table 7 (Appendix F).
type RankBucketRow struct {
	Bucket    string
	MeanNodes float64
	ChildSim  float64
	ParentSim float64
	Pages     int
}

// RankBucketResult is Table 7 plus its Kruskal-Wallis tests.
type RankBucketResult struct {
	Rows []RankBucketRow
	// NodesTest tests total nodes across buckets; SimTest tests child
	// similarity across buckets.
	NodesTest stats.TestResult
	SimTest   stats.TestResult
	// Epsilon2 is the effect size of SimTest (the paper reports ε² = .002:
	// significant but practically negligible).
	Epsilon2  float64
	TestError error
}

// RankBuckets computes the Appendix F popularity analysis. boundaries are
// the rank-bucket upper bounds (tranco.PaperBoundaries or scaled).
func (a *Analysis) RankBuckets(boundaries []int) RankBucketResult {
	n := len(boundaries)
	type agg struct {
		nodes, child, parent []float64
	}
	aggs := make([]agg, n)
	for _, pa := range a.pages {
		rank, ok := a.siteRank[pa.Key.Site]
		if !ok {
			continue
		}
		bi := tranco.BucketIndex(rank, boundaries)
		if bi < 0 {
			continue
		}
		var nodeCount float64
		for _, t := range pa.Trees {
			nodeCount += float64(t.NodeCount())
		}
		nodeCount /= float64(len(pa.Trees))
		var childSims, parentSims []float64
		rootKey := pa.Trees[0].Root.Key
		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey {
				continue
			}
			if ni.HasChildAnywhere {
				childSims = append(childSims, ni.ChildSim)
			}
			if ni.MeanDepth() >= 2 {
				parentSims = append(parentSims, ni.ParentSim)
			}
		}
		aggs[bi].nodes = append(aggs[bi].nodes, nodeCount)
		if len(childSims) > 0 {
			aggs[bi].child = append(aggs[bi].child, stats.Mean(childSims))
		}
		if len(parentSims) > 0 {
			aggs[bi].parent = append(aggs[bi].parent, stats.Mean(parentSims))
		}
	}
	res := RankBucketResult{}
	var nodeGroups, simGroups [][]float64
	for i := range aggs {
		name := ""
		if i < len(tranco.BucketNames) {
			name = tranco.BucketNames[i]
		}
		res.Rows = append(res.Rows, RankBucketRow{
			Bucket:    name,
			MeanNodes: stats.Mean(aggs[i].nodes),
			ChildSim:  stats.Mean(aggs[i].child),
			ParentSim: stats.Mean(aggs[i].parent),
			Pages:     len(aggs[i].nodes),
		})
		if len(aggs[i].nodes) > 0 {
			nodeGroups = append(nodeGroups, aggs[i].nodes)
			simGroups = append(simGroups, aggs[i].child)
		}
	}
	if len(nodeGroups) >= 2 {
		var err error
		res.NodesTest, err = stats.KruskalWallis(nodeGroups...)
		if err == nil {
			res.SimTest, err = stats.KruskalWallis(simGroups...)
		}
		if err == nil {
			res.Epsilon2 = stats.EpsilonSquared(res.SimTest)
		}
		res.TestError = err
	}
	return res
}
