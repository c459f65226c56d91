package tree

import (
	"encoding/json"
	"sync"
	"testing"

	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/urlutil"
)

// visitStrings collects every string the visit references — the universe
// a columnar site block's string table would hold.
func visitStrings(v *measurement.Visit) []string {
	out := []string{v.Site, v.PageURL, v.Profile, v.Status, v.Failure, v.FaultKind}
	for _, q := range v.Requests {
		out = append(out, q.URL, q.FrameURL, q.RedirectFrom, q.ContentType, q.TrueParentURL)
		for _, f := range q.CallStack {
			out = append(out, f.FuncName, f.URL)
		}
		out = append(out, q.SetCookies...)
	}
	return out
}

// TestBuildKeyedMatchesBuild is the equivalence guarantee behind the
// columnar fast path: building through a pre-interned KeyCache must
// produce a tree identical — node for node, parent for parent, flag for
// flag — to the string-keyed Build, across the ablation variants.
func TestBuildKeyedMatchesBuild(t *testing.T) {
	v := visitFixture()
	cache := urlutil.BuildKeyCache(visitStrings(v))
	builders := map[string]*Builder{
		"default":           {Filter: testFilter(t)},
		"no-filter":         {},
		"raw-url-identity":  {Filter: testFilter(t), RawURLIdentity: true},
		"ignore-callstacks": {Filter: testFilter(t), IgnoreCallStacks: true},
	}
	for name, b := range builders {
		t.Run(name, func(t *testing.T) {
			plain, err := b.Build(v)
			if err != nil {
				t.Fatal(err)
			}
			keyed, err := b.BuildKeyed(v, cache)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(plain.Record())
			if err != nil {
				t.Fatal(err)
			}
			kj, err := json.Marshal(keyed.Record())
			if err != nil {
				t.Fatal(err)
			}
			if string(pj) != string(kj) {
				t.Errorf("keyed build differs from plain build:\nplain: %s\nkeyed: %s", pj, kj)
			}
		})
	}
}

// TestBuildKeyedPartialCache exercises the fallback: URLs outside the
// cache's universe (possible only with a hand-built cache, never with a
// block-derived one) must fall back to direct normalization.
func TestBuildKeyedPartialCache(t *testing.T) {
	v := visitFixture()
	cache := urlutil.BuildKeyCache([]string{v.PageURL}) // deliberately incomplete
	b := &Builder{Filter: testFilter(t)}
	plain, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := b.BuildKeyed(v, cache)
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(plain.Record())
	kj, _ := json.Marshal(keyed.Record())
	if string(pj) != string(kj) {
		t.Errorf("partial-cache build differs:\nplain: %s\nkeyed: %s", pj, kj)
	}
}

// TestDecisionTableSharedAcrossBuilds shares one Builder and one site
// cache between concurrent builds of pages on three hosts, under rules
// that read the page host ($domain, $third-party) and the request type:
// every tree must equal an uncached build, so a decision cached for one
// (URL, page host, type) never leaks into another.
func TestDecisionTableSharedAcrossBuilds(t *testing.T) {
	filter, skipped := filterlist.Parse("/widget$domain=a.news.example\n/media$image\n||cdn.example/px$third-party\n")
	if skipped != 0 {
		t.Fatalf("filter skipped %d", skipped)
	}
	mk := func(page string, mediaType measurement.ResourceType) *measurement.Visit {
		return &measurement.Visit{
			Site: "news.example", PageURL: page, Profile: "Sim1", Success: true,
			Requests: []measurement.Request{
				{URL: page, Type: measurement.TypeMainFrame},
				{URL: "https://cdn.example/widget.js", Type: measurement.TypeScript},
				{URL: "https://cdn.example/media.bin", Type: mediaType},
				{URL: "https://cdn.example/px.gif", Type: measurement.TypeImage},
			},
		}
	}
	visits := []*measurement.Visit{
		mk("https://a.news.example/p1", measurement.TypeImage),
		mk("https://b.news.example/p2", measurement.TypeMedia),
		mk("https://cdn.example/home", measurement.TypeImage),
		mk("https://a.news.example/p3", measurement.TypeMedia),
	}
	var raws []string
	for _, v := range visits {
		raws = append(raws, visitStrings(v)...)
	}
	cache := urlutil.BuildKeyCache(raws)
	want := make([]string, len(visits))
	for i, v := range visits {
		tr, err := (&Builder{Filter: filter}).Build(v)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := json.Marshal(tr.Record())
		want[i] = string(rec)
	}
	tracking := func(i int, url string) bool {
		tr, _ := (&Builder{Filter: filter}).Build(visits[i])
		key, _ := urlutil.Normalize(url)
		return tr.Node(key).Tracking
	}
	if !tracking(0, "https://cdn.example/widget.js") || tracking(1, "https://cdn.example/widget.js") ||
		!tracking(0, "https://cdn.example/media.bin") || tracking(1, "https://cdn.example/media.bin") ||
		!tracking(1, "https://cdn.example/px.gif") || tracking(2, "https://cdn.example/px.gif") {
		t.Fatal("fixture no longer makes decisions depend on page host and type")
	}

	shared := &Builder{Filter: filter}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(visits)
				tr, err := shared.BuildKeyed(visits[i], cache)
				if err != nil {
					t.Error(err)
					return
				}
				if rec, _ := json.Marshal(tr.Record()); string(rec) != want[i] {
					t.Errorf("visit %d: shared-table build differs:\ngot:  %s\nwant: %s", i, rec, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
