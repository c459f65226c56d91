package filterlist

import (
	"strings"
	"testing"
	"testing/quick"

	"webmeasure/internal/webgen"
)

func mustRule(t *testing.T, line string) *Rule {
	t.Helper()
	r, err := ParseRule(line)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", line, err)
	}
	if r == nil {
		t.Fatalf("ParseRule(%q): unexpectedly ignored", line)
	}
	return r
}

func req(url string) Request {
	return Request{URL: url, PageURL: "https://site.example/page", Type: TypeScript}
}

func TestPlainSubstring(t *testing.T) {
	r := mustRule(t, "/banner/ad")
	if !r.MatchRequest(req("https://x.com/banner/ad.png")) {
		t.Error("substring should match")
	}
	if r.MatchRequest(req("https://x.com/banner/video.png")) {
		t.Error("should not match")
	}
}

func TestWildcard(t *testing.T) {
	r := mustRule(t, "/ads/*/banner")
	if !r.MatchRequest(req("https://x.com/ads/v2/banner.gif")) {
		t.Error("wildcard should match")
	}
	if r.MatchRequest(req("https://x.com/ads/banner")) {
		// '*' may match the empty string in ABP; /ads//banner would match,
		// but /ads/banner lacks the second slash... actually '*' can match
		// empty, making "/ads/" + "" + "/banner" require "/ads//banner".
		// "/ads/banner" has only one slash between, so no match.
		t.Error("should not match without intermediate segment")
	}
}

func TestWildcardMatchesEmpty(t *testing.T) {
	r := mustRule(t, "ad*s")
	if !r.MatchRequest(req("https://x.com/ads")) {
		t.Error("'*' should match the empty string")
	}
}

func TestSeparator(t *testing.T) {
	r := mustRule(t, "/track^")
	if !r.MatchRequest(req("https://x.com/track?id=1")) {
		t.Error("^ should match '?'")
	}
	if !r.MatchRequest(req("https://x.com/track/px.gif")) {
		t.Error("^ should match '/'")
	}
	if !r.MatchRequest(req("https://x.com/track")) {
		t.Error("^ should match end of URL")
	}
	if r.MatchRequest(req("https://x.com/tracker")) {
		t.Error("^ must not match a letter")
	}
	if r.MatchRequest(req("https://x.com/track-me")) {
		t.Error("^ must not match '-'")
	}
}

func TestDomainAnchor(t *testing.T) {
	r := mustRule(t, "||ads.example.com^")
	if !r.MatchRequest(req("https://ads.example.com/x.js")) {
		t.Error("should match at host start")
	}
	if !r.MatchRequest(req("https://sub.ads.example.com/x.js")) {
		t.Error("should match after a dot")
	}
	if r.MatchRequest(req("https://badads.example.com/x.js")) {
		t.Error("must not match mid-label")
	}
	if r.MatchRequest(req("https://example.com/ads.example.com/x.js")) {
		t.Error("must not match in the path")
	}
}

func TestStartEndAnchors(t *testing.T) {
	r := mustRule(t, "|https://cdn.")
	if !r.MatchRequest(req("https://cdn.x.com/a.js")) {
		t.Error("start anchor should match")
	}
	if r.MatchRequest(req("http://x.com/https://cdn.")) {
		t.Error("start anchor must match position 0 only")
	}
	r = mustRule(t, ".swf|")
	if !r.MatchRequest(req("https://x.com/movie.swf")) {
		t.Error("end anchor should match")
	}
	if r.MatchRequest(req("https://x.com/movie.swf?x=1")) {
		t.Error("end anchor must match URL end only")
	}
}

func TestThirdPartyOption(t *testing.T) {
	r := mustRule(t, "/pixel$third-party")
	third := Request{URL: "https://tracker.net/pixel.gif", PageURL: "https://site.example/", Type: TypeImage}
	first := Request{URL: "https://site.example/pixel.gif", PageURL: "https://site.example/", Type: TypeImage}
	if !r.MatchRequest(third) {
		t.Error("third-party request should match")
	}
	if r.MatchRequest(first) {
		t.Error("first-party request must not match $third-party")
	}
	r = mustRule(t, "/pixel$~third-party")
	if r.MatchRequest(third) || !r.MatchRequest(first) {
		t.Error("~third-party inverted")
	}
}

func TestDomainOption(t *testing.T) {
	r := mustRule(t, "/ad.js$domain=news.example|~blog.news.example")
	on := Request{URL: "https://cdn.net/ad.js", PageURL: "https://news.example/p", Type: TypeScript}
	sub := Request{URL: "https://cdn.net/ad.js", PageURL: "https://www.news.example/p", Type: TypeScript}
	excluded := Request{URL: "https://cdn.net/ad.js", PageURL: "https://blog.news.example/p", Type: TypeScript}
	off := Request{URL: "https://cdn.net/ad.js", PageURL: "https://other.example/p", Type: TypeScript}
	if !r.MatchRequest(on) || !r.MatchRequest(sub) {
		t.Error("domain include should match site and subdomains")
	}
	if r.MatchRequest(excluded) {
		t.Error("negated domain must win")
	}
	if r.MatchRequest(off) {
		t.Error("other domains must not match")
	}
}

func TestTypeOptions(t *testing.T) {
	r := mustRule(t, "/ads/$script,image")
	if !r.MatchRequest(Request{URL: "https://x.com/ads/a.js", Type: TypeScript}) {
		t.Error("script should match")
	}
	if r.MatchRequest(Request{URL: "https://x.com/ads/a.css", Type: TypeStylesheet}) {
		t.Error("stylesheet must not match $script,image")
	}
	r = mustRule(t, "/ads/$~image")
	if r.MatchRequest(Request{URL: "https://x.com/ads/a.gif", Type: TypeImage}) {
		t.Error("~image must exclude images")
	}
	if !r.MatchRequest(Request{URL: "https://x.com/ads/a.js", Type: TypeScript}) {
		t.Error("~image must keep scripts")
	}
}

func TestExceptionRules(t *testing.T) {
	l, skipped := Parse("||tracker.net^\n@@||tracker.net/allowed/$script\n")
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	if !l.Matches(req("https://tracker.net/pixel.gif")) {
		t.Error("block rule should apply")
	}
	if l.Matches(req("https://tracker.net/allowed/lib.js")) {
		t.Error("exception should override")
	}
}

func TestParseIgnoresCommentsAndCosmetic(t *testing.T) {
	text := `! comment
[Adblock Plus 2.0]
example.com##.ad-banner
##.generic-ad
||real-rule.net^
`
	l, skipped := Parse(text)
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestParseSkipsBadRules(t *testing.T) {
	l, skipped := Parse("||good.net^\n$unknownopt=x\n*\n")
	// "$unknownopt=x" has no recognizable option → it is treated as a
	// pattern containing '$', which is fine; "*" alone is an empty pattern.
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if l.Len() < 1 {
		t.Error("good rule lost")
	}
}

func TestDollarInPatternNotOptions(t *testing.T) {
	r := mustRule(t, "/path$weird")
	if r.pattern != "/path$weird" {
		t.Errorf("pattern = %q, want the $ kept", r.pattern)
	}
}

func TestTokenIndexSoundness(t *testing.T) {
	// The unanchored rule "track" must match inside a longer run; the index
	// must not lose it.
	l, _ := Parse("track\n")
	if !l.Matches(req("https://x.com/xtracky.js")) {
		t.Error("token index caused a missed substring match")
	}
	// Domain-anchored rule: token at pattern start is boundary-safe.
	l, _ = Parse("||example-ads.com^\n")
	if !l.Matches(req("https://example-ads.com/a.js")) {
		t.Error("anchored rule should match")
	}
	if l.Matches(req("https://notexample-ads.com.evil.net/a.js")) == false {
		// ||example-ads.com^ matches "example-ads.com." after the dot? The
		// host is notexample-ads.com.evil.net: positions after dots are
		// "com.evil.net" and "evil.net" and "net" — none starts with
		// "example-ads.com^", and host start is "notexample..." so no match.
		_ = l
	}
	if l.Matches(req("https://notexample-ads.com/a.js")) {
		t.Error("mid-label host match must not happen")
	}
}

// Property: List.Matches is equivalent to linearly scanning all rules. This
// guards the token index against missed matches on arbitrary inputs.
func TestIndexEquivalentToLinearScan(t *testing.T) {
	rules := []string{
		"||ads-syndication.example^",
		"/track/^$third-party",
		"/pixel$image",
		"banner*ad",
		"|https://collect.",
		".gif|",
		"@@||ads-syndication.example/safe/",
	}
	text := strings.Join(rules, "\n")
	l, skipped := Parse(text)
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	var parsed []*Rule
	for _, line := range rules {
		r, _ := ParseRule(line)
		parsed = append(parsed, r)
	}
	linear := func(rq Request) bool {
		blocked := false
		for _, r := range parsed {
			if !r.Exception && r.MatchRequest(rq) {
				blocked = true
				break
			}
		}
		if !blocked {
			return false
		}
		for _, r := range parsed {
			if r.Exception && r.MatchRequest(rq) {
				return false
			}
		}
		return true
	}
	hosts := []string{"ads-syndication.example", "cdn.site.example", "collect.stats.net", "x.com"}
	paths := []string{"/track/", "/pixel.gif", "/banner/big-ad.js", "/safe/lib.js", "/a.gif", "/app.js"}
	types := []RequestType{TypeScript, TypeImage, TypeStylesheet, TypePing}
	f := func(h, p, ty uint8) bool {
		rq := Request{
			URL:     "https://" + hosts[int(h)%len(hosts)] + paths[int(p)%len(paths)],
			PageURL: "https://site.example/page",
			Type:    types[int(ty)%len(types)],
		}
		return l.Matches(rq) == linear(rq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestMatchCaseInsensitive(t *testing.T) {
	r := mustRule(t, "/TRACK/")
	if !r.MatchRequest(req("https://x.com/track/a.js")) {
		t.Error("matching should be case-insensitive")
	}
}

func BenchmarkListMatch(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("||tracker-")
		sb.WriteByte(byte('a' + i%26))
		sb.WriteString("-net.example^\n")
	}
	sb.WriteString("/track/^\n/pixel$image\n")
	l, _ := Parse(sb.String())
	rq := Request{URL: "https://cdn.site.example/assets/app.js?v=3", PageURL: "https://site.example/", Type: TypeScript}
	hit := Request{URL: "https://stats.net/track/p.gif", PageURL: "https://site.example/", Type: TypeImage}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Matches(rq)
		l.Matches(hit)
	}
}

// TestListMatchAllocFree guards the matcher's hot path: a lower-case
// request against the generated universe's list — domain anchors, the
// token index, $image, an exception — must not allocate, hit or miss.
func TestListMatchAllocFree(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(1))
	l, skipped := Parse(u.FilterListText())
	if skipped != 0 {
		t.Fatalf("%d generated rules skipped", skipped)
	}
	var tracker string
	for _, s := range u.AllServices() {
		if s.Tracking {
			tracker = s.Domain
			break
		}
	}
	reqs := []Request{
		{URL: "https://cdn.site-0001.example/assets/app.js?v=3&s=abc", PageURL: "https://site-0001.example/", Type: TypeScript},
		{URL: "https://stats.example/track/p.gif?id=1", PageURL: "https://site-0001.example/", Type: TypeImage},
		{URL: "https://sub." + tracker + "/tag.js", PageURL: "https://site-0001.example/a", Type: TypeScript},
		{URL: "https://docs." + tracker + "/beacon", PageURL: "https://site-0001.example/a", Type: TypePing},
	}
	for _, rq := range reqs {
		if allocs := testing.AllocsPerRun(100, func() { l.Matches(rq) }); allocs != 0 {
			t.Errorf("List.Matches(%s) allocates %.1f times per call, want 0", rq.URL, allocs)
		}
	}
	if !l.Matches(reqs[1]) || !l.Matches(reqs[2]) || l.Matches(reqs[0]) || l.Matches(reqs[3]) {
		t.Error("alloc-guard requests no longer cover both a hit and a miss")
	}
}

func TestMerge(t *testing.T) {
	a, _ := Parse("||tracker-a.example^\n@@||tracker-a.example/ok/\n")
	b, _ := Parse("/telemetry^\n")
	m := Merge(a, b, nil)
	if m.Len() != a.Len()+b.Len() {
		t.Errorf("merged Len = %d, want %d", m.Len(), a.Len()+b.Len())
	}
	if !m.Matches(req("https://tracker-a.example/p.gif")) {
		t.Error("rule from first list lost")
	}
	if !m.Matches(req("https://x.example/telemetry/x")) {
		t.Error("rule from second list lost")
	}
	if m.Matches(req("https://tracker-a.example/ok/x.js")) {
		t.Error("exception from first list lost")
	}
	if m.Matches(req("https://clean.example/app.js")) {
		t.Error("merged list over-matches")
	}
	if empty := Merge(); empty.Matches(req("https://x.example/telemetry")) {
		t.Error("empty merge must match nothing")
	}
}

func TestMatchEmptyURL(t *testing.T) {
	// Regression: an unanchored rule matched against an empty URL used to
	// slice out of range (found by FuzzParseRule).
	r := mustRule(t, "trac*.^x")
	if r.MatchRequest(Request{URL: "", PageURL: "https://p.example/", Type: TypeScript}) {
		t.Error("empty URL must not match")
	}
	l, _ := Parse("track\n||d.example^\n")
	if l.Matches(Request{URL: "", PageURL: "https://p.example/", Type: TypeScript}) {
		t.Error("empty URL must not match any list")
	}
}
