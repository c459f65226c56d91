package filterlist

import (
	"strings"
	"testing"
)

// FuzzParseRule: arbitrary rule lines must parse or error, never panic,
// and parsed rules must be matchable against arbitrary URLs.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"||ads.example.com^",
		"/track/^$third-party,image",
		"@@||good.example/path$script",
		"|https://exact.example/x|",
		"a*b*c^",
		"$domain=a.example|~b.example",
		"!comment",
		"##cosmetic",
		"pattern$unknown=opt",
	} {
		f.Add(s, "https://host.example/track/p.gif?x=1")
	}
	f.Fuzz(func(t *testing.T, line, url string) {
		r, err := ParseRule(line)
		if err != nil || r == nil {
			return
		}
		// Matching must not panic on arbitrary URLs.
		_ = r.MatchRequest(Request{URL: url, PageURL: "https://page.example/", Type: TypeScript})
	})
}

// FuzzListMatch is an oracle for the token index and the shared
// per-request state: for arbitrary list text, request URL, page URL and
// request type, List.Matches and Memo.Matches must both equal a linear
// scan of every rule the text parses to — the block rules through
// Rule.MatchRequest, then the exceptions.
func FuzzListMatch(f *testing.F) {
	f.Add("||t.example^\n/px^$image\n@@||t.example/ok/", "https://t.example/px.gif", "https://p.example/", uint16(TypeImage))
	f.Add("a*b\nc^d", "https://acb.example/c/d", "https://p.example/", uint16(TypeScript))
	f.Add("||cdn.example/pix$third-party\n/w$domain=site.example|~x.site.example", "https://cdn.example/pix/w", "https://x.site.example/a", uint16(TypeImage))
	f.Add("track\ntrack$~third-party\n@@/track/ok$script", "https://T.example/track/track/ok", "https://t.example/", uint16(0))
	f.Add("|https://a.b^\n.gif|\n||b.c^$subdocument", "https://a.b.c/x.gif", "", uint16(TypeSubdocument))
	f.Add("||cdn.example^$image\n/track/", "https://cdn.example/track/x.js", "https://p.example/", uint16(TypeScript))
	f.Fuzz(func(t *testing.T, text, url, pageURL string, typ uint16) {
		l, _ := Parse(text)
		// Parse's scanner splits lines the same way for inputs under its
		// 1 MiB line limit, far above what the fuzzer generates.
		var rules []*Rule
		for _, line := range strings.Split(text, "\n") {
			if r, err := ParseRule(strings.TrimSuffix(line, "\r")); err == nil && r != nil {
				rules = append(rules, r)
			}
		}
		req := Request{URL: url, PageURL: pageURL, Type: RequestType(typ)}
		want := false
		for _, r := range rules {
			if !r.Exception && r.MatchRequest(req) {
				want = true
				break
			}
		}
		for _, r := range rules {
			if want && r.Exception && r.MatchRequest(req) {
				want = false
			}
		}
		if got := l.Matches(req); got != want {
			t.Fatalf("List.Matches(%+v) = %v, linear scan %v", req, got, want)
		}
		m := NewMemo(l, 4)
		for i := 0; i < 2; i++ { // a miss, then a hit
			if got := m.Matches(req); got != want {
				t.Fatalf("Memo.Matches(%+v) pass %d = %v, linear scan %v", req, i, got, want)
			}
		}
	})
}
