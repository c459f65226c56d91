package core

import (
	"bytes"
	"context"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// shardExperiment crawls a small experiment and returns the pieces the
// shard-and-merge tests need.
func shardExperiment(t testing.TB, seed int64) (*dataset.Dataset, *filterlist.List, Options) {
	t.Helper()
	const nSites = 10
	u := webgen.New(webgen.DefaultConfig(seed))
	list := tranco.Generate(nSites*10, seed)
	sample := list.Sample(tranco.ScaledBoundaries(nSites*10), nSites/5, seed)
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe: u, Sites: sample, MaxPages: 4, Instances: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	filter, _ := filterlist.Parse(u.FilterListText())
	return ds, filter, Options{Profiles: []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"}}
}

// splitPartials analyzes each shard's slice independently and round-trips
// every partial through its wire encoding.
func splitPartials(t testing.TB, ds *dataset.Dataset, filter *filterlist.List, opts Options, plan ShardPlan) []*Partial {
	t.Helper()
	parts := make([]*Partial, plan.Count)
	for i := 0; i < plan.Count; i++ {
		keep := plan.Keep(i)
		shardDS := ds.FilterPages(func(k dataset.PageKey) bool { return keep(k.Site, k.PageURL) })
		shardOpts := opts
		shardOpts.AllowEmpty = true
		a, err := New(shardDS, filter, shardOpts)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		part, err := a.Partial(plan, i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		wire, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = DecodePartial(wire); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// exportJSON renders the analysis's full JSON bundle — the widest net for
// "indistinguishable from the direct analysis".
func exportJSON(t testing.TB, a *Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Export(ExportOptions{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeOfSplitEqualsDirect: merge(split(X)) == X — splitting the
// dataset under a plan, analyzing each slice, and merging the partials
// must reproduce the direct analysis bit for bit.
func TestMergeOfSplitEqualsDirect(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 21)
	direct, err := New(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4, 7} {
		plan := ShardPlan{Count: count, Seed: 21}
		parts := splitPartials(t, ds, filter, opts, plan)
		merged, err := NewFromPartials(ds, filter, opts, plan, parts)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if got, want := merged.Vetting(), direct.Vetting(); got != want {
			t.Errorf("%s: vetting %+v, want %+v", plan, got, want)
		}
		if got, want := exportJSON(t, merged), exportJSON(t, direct); !bytes.Equal(got, want) {
			t.Errorf("%s: merged export differs from direct (%d vs %d bytes)", plan, len(got), len(want))
		}
	}
}

// TestMergePermutationInvariant: the partials may arrive in any order —
// the merge keys on the shard index, never on arrival order.
func TestMergePermutationInvariant(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 33)
	plan := ShardPlan{Count: 3, Seed: 33}
	parts := splitPartials(t, ds, filter, opts, plan)
	var want []byte
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		shuffled := []*Partial{parts[perm[0]], parts[perm[1]], parts[perm[2]]}
		merged, err := NewFromPartials(ds, filter, opts, plan, shuffled)
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		got := exportJSON(t, merged)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("perm %v: export differs from first permutation", perm)
		}
	}
}

// TestMergeRejectsBadPartialSets: the merge must refuse incomplete,
// duplicated, or cross-plan partial sets instead of silently producing a
// partial answer.
func TestMergeRejectsBadPartialSets(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, filter, opts, plan)

	if _, err := NewFromPartials(ds, filter, opts, plan, parts[:1]); err == nil {
		t.Error("short partial set accepted")
	}
	if _, err := NewFromPartials(ds, filter, opts, plan, []*Partial{parts[0], parts[0]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	other := *parts[1]
	other.Plan = ShardPlan{Count: 2, Seed: 999}
	if _, err := NewFromPartials(ds, filter, opts, plan, []*Partial{parts[0], &other}); err == nil {
		t.Error("partial from a different plan accepted")
	}
	if _, err := NewFromPartials(ds, filter, opts, plan, []*Partial{parts[0], nil}); err == nil {
		t.Error("nil partial accepted")
	}
}

// TestPartialRejectsWrongShard: exporting an analysis as a shard it does
// not match must fail — the crawl and the plan disagree.
func TestPartialRejectsWrongShard(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	keep := plan.Keep(0)
	shardDS := ds.FilterPages(func(k dataset.PageKey) bool { return keep(k.Site, k.PageURL) })
	shardOpts := opts
	shardOpts.AllowEmpty = true
	a, err := New(shardDS, filter, shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pages()) == 0 {
		t.Fatal("shard 0 vetted no pages — pick another seed")
	}
	if _, err := a.Partial(plan, 1); err == nil {
		t.Error("shard-0 pages exported as shard 1")
	}
	if _, err := a.Partial(ShardPlan{Count: 0}, 0); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, err := a.Partial(plan, 5); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestDecodePartialSchema: a partial from a different wire schema must be
// refused, not misread.
func TestDecodePartialSchema(t *testing.T) {
	if _, err := DecodePartial([]byte(`{"schema":99}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodePartial([]byte(`not json`)); err == nil {
		t.Error("malformed partial accepted")
	}
}

// FuzzDecodePartial fuzzes the bytes a shard peer sends the coordinator
// over HTTP. Decoding must never panic; a partial that decodes must
// re-encode to a fixed point, and merging it as the sole shard of a
// one-shard plan must return a result or an error, never panic.
func FuzzDecodePartial(f *testing.F) {
	ds, filter, opts := shardExperiment(f, 21)
	a, err := New(ds, filter, opts)
	if err != nil {
		f.Fatal(err)
	}
	part, err := a.Partial(ShardPlan{Count: 1, Seed: 21}, 0)
	if err != nil {
		f.Fatal(err)
	}
	// One page with short trees and one visit with two requests keep the
	// seed small enough to mutate quickly while still covering every field
	// of the wire form. A pre-order prefix of a tree record is itself a
	// valid tree record.
	page := part.Pages[0]
	for i := range page.Trees {
		if len(page.Trees[i].Nodes) > 3 {
			page.Trees[i].Nodes = page.Trees[i].Nodes[:3]
		}
	}
	visit := *part.Visits[0]
	if len(visit.Requests) > 2 {
		visit.Requests = visit.Requests[:2]
	}
	part.Pages, part.Visits = []PartialPage{page}, []*measurement.Visit{&visit}
	seed, err := part.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":1,"plan":{"count":1,"seed":0},"shard":0,"profiles":["Sim1"],"pages":[{"key":{"Site":"a","PageURL":"b"},"trees":[]}]}`))
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePartial(b)
		if err != nil {
			return
		}
		once, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded partial does not re-encode: %v", err)
		}
		back, err := DecodePartial(once)
		if err != nil {
			t.Fatalf("re-encoded partial does not decode: %v", err)
		}
		twice, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", once, twice)
		}
		if p.Plan.Validate() != nil || p.Plan.Count != 1 {
			return
		}
		merged := dataset.New()
		for _, v := range p.Visits {
			if v != nil {
				merged.Add(v)
			}
		}
		_, _ = NewFromPartials(merged, nil, Options{AllowEmpty: true, Workers: 1}, p.Plan, []*Partial{p})
	})
}
