package filterlist

import (
	"bufio"
	"strings"
)

// List is a compiled filter list with a token index for fast matching.
type List struct {
	// indexed maps a distinctive token to the block rules containing it.
	indexed map[string][]*Rule
	// untokenized holds block rules without a usable token.
	untokenized []*Rule
	exceptions  []*Rule
	ruleCount   int
}

// Parse compiles a filter list. Unparseable rules are skipped and counted,
// mirroring how browsers load crowd-sourced lists: one bad line must not
// disable blocking.
func Parse(text string) (*List, int) {
	l := &List{indexed: make(map[string][]*Rule)}
	skipped := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		rule, err := ParseRule(sc.Text())
		if err != nil {
			skipped++
			continue
		}
		if rule == nil {
			continue
		}
		l.add(rule)
	}
	return l, skipped
}

func (l *List) add(r *Rule) {
	l.ruleCount++
	if r.Exception {
		l.exceptions = append(l.exceptions, r)
		return
	}
	if tok := ruleToken(r); tok != "" {
		l.indexed[tok] = append(l.indexed[tok], r)
	} else {
		l.untokenized = append(l.untokenized, r)
	}
}

// Len returns the number of compiled rules (block + exception).
func (l *List) Len() int { return l.ruleCount }

// Merge combines several lists into one matcher — the §6 scenario of
// stacking EasyList with further lists (e.g. EasyPrivacy) for broader
// coverage. Rules keep their origin semantics; an exception in any list
// suppresses matches from all of them, which is how content blockers
// treat stacked subscriptions.
func Merge(lists ...*List) *List {
	out := &List{indexed: make(map[string][]*Rule)}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for tok, rules := range l.indexed {
			out.indexed[tok] = append(out.indexed[tok], rules...)
		}
		out.untokenized = append(out.untokenized, l.untokenized...)
		out.exceptions = append(out.exceptions, l.exceptions...)
		out.ruleCount += l.ruleCount
	}
	return out
}

// Matches reports whether the request is blocked by the list: some block
// rule matches and no exception rule does. In the paper's usage a match
// means "tracking request". Per-request work — lowering the URL, the
// page host, the $third-party bit — is done at most once and shared by
// every candidate rule, and a lower-case URL is matched without
// allocating.
func (l *List) Matches(req Request) bool {
	m := newMatchCtx(req)
	if !l.anyBlockMatch(&m) {
		return false
	}
	for _, r := range l.exceptions {
		if r.match(&m) {
			return false
		}
	}
	return true
}

// triedBuckets bounds how many index buckets anyBlockMatch remembers to
// skip when a URL repeats a token; past it a repeat is re-evaluated,
// which costs time but cannot change the result.
const triedBuckets = 8

func (l *List) anyBlockMatch(m *matchCtx) bool {
	// Every indexed rule sits in exactly one bucket (its token's), so a
	// bucket's first rule identifies it: remembering those dedupes the
	// candidate rules of a URL whose tokens repeat, without a map.
	var tried [triedBuckets]*Rule
	n := 0
	url := m.url
	start := -1
	for i := 0; i <= len(url); i++ {
		if i < len(url) && isTokenByte(url[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start < 0 {
			continue
		}
		tok := url[start:i]
		start = -1
		if len(tok) < minTokenLen {
			continue
		}
		bucket := l.indexed[tok]
		if len(bucket) == 0 || ruleIn(tried[:n], bucket[0]) {
			continue
		}
		if n < len(tried) {
			tried[n] = bucket[0]
			n++
		}
		for _, r := range bucket {
			if r.match(m) {
				return true
			}
		}
	}
	for _, r := range l.untokenized {
		if r.match(m) {
			return true
		}
	}
	return false
}

func ruleIn(rules []*Rule, r *Rule) bool {
	for _, x := range rules {
		if x == r {
			return true
		}
	}
	return false
}

// minTokenLen is the shortest token worth indexing. Shorter runs are too
// common to discriminate.
const minTokenLen = 3

// ruleToken picks the longest literal alphanumeric run in the pattern that
// is guaranteed to appear as a *maximal* run in any matching URL, so the
// token index never causes a missed match. A run qualifies only when both
// of its sides are delimited: by a non-token byte inside the pattern, or by
// an anchor at the pattern's edge (the URL position there is a boundary).
// Runs touching a wildcard or an unanchored pattern edge may be substrings
// of a longer URL run and must not be indexed.
func ruleToken(r *Rule) string {
	best := ""
	for si, seg := range r.segments {
		start := -1
		for i := 0; i <= len(seg); i++ {
			alnum := i < len(seg) && isTokenByte(seg[i])
			if alnum && start < 0 {
				start = i
			}
			if !alnum && start >= 0 {
				leftOK := start > 0 ||
					(si == 0 && (r.anchorDomain || r.anchorStart) && !strings.HasPrefix(r.pattern, "*"))
				rightOK := i < len(seg) ||
					(si == len(r.segments)-1 && r.anchorEnd && !strings.HasSuffix(r.pattern, "*"))
				if run := seg[start:i]; leftOK && rightOK && len(run) > len(best) {
					best = run
				}
				start = -1
			}
		}
	}
	if len(best) < minTokenLen {
		return ""
	}
	return best
}

func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}
