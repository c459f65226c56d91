package filterlist

import (
	"strings"

	"webmeasure/internal/urlutil"
)

// Request carries the context the matcher needs: the request URL, the URL of
// the page issuing it (for $third-party and $domain), and the resource type.
type Request struct {
	URL     string
	PageURL string
	Type    RequestType
}

// MatchRequest reports whether the rule matches the request, considering the
// pattern and all options.
func (r *Rule) MatchRequest(req Request) bool {
	m := newMatchCtx(req)
	return r.match(&m)
}

// matchCtx is one request as the rules read it: the lower-cased URL, and
// the URL's host span, the page host and the $third-party bit computed on
// first use, so a request checked against many candidate rules scans and
// parses each URL at most once.
type matchCtx struct {
	req Request
	url string // strings.ToLower(req.URL)

	hostStart, hostEnd         int
	host                       string
	thirdParty                 bool
	haveSpan, haveHost, haveTP bool
}

func newMatchCtx(req Request) matchCtx {
	return matchCtx{req: req, url: strings.ToLower(req.URL)}
}

// urlHost returns the [start, end) byte range of the lower-cased URL's
// host: after "://" (or from 0 without one) up to the first '/', '?',
// ':' or '#'.
func (m *matchCtx) urlHost() (start, end int) {
	if !m.haveSpan {
		url := m.url
		start, end = 0, len(url)
		if i := strings.Index(url, "://"); i >= 0 {
			start = i + 3
		}
		if i := strings.IndexAny(url[start:], "/?:#"); i >= 0 {
			end = start + i
		}
		m.hostStart, m.hostEnd, m.haveSpan = start, end, true
	}
	return m.hostStart, m.hostEnd
}

func (m *matchCtx) pageHost() string {
	if !m.haveHost {
		m.host, m.haveHost = urlutil.Host(m.req.PageURL), true
	}
	return m.host
}

func (m *matchCtx) isThirdParty() bool {
	if !m.haveTP {
		m.thirdParty, m.haveTP = urlutil.IsThirdParty(m.req.URL, m.req.PageURL), true
	}
	return m.thirdParty
}

func (r *Rule) match(m *matchCtx) bool {
	if r.types&m.req.Type == 0 && m.req.Type != 0 {
		return false
	}
	if r.thirdParty != 0 {
		tp := m.isThirdParty()
		if r.thirdParty == 1 && !tp {
			return false
		}
		if r.thirdParty == 2 && tp {
			return false
		}
	}
	if len(r.includeDomains) > 0 || len(r.excludeDomains) > 0 {
		host := m.pageHost()
		if len(r.includeDomains) > 0 && !domainInList(host, r.includeDomains) {
			return false
		}
		if domainInList(host, r.excludeDomains) {
			return false
		}
	}
	return r.matchURL(m)
}

// domainInList reports whether host equals or is a subdomain of any entry.
func domainInList(host string, list []string) bool {
	for _, d := range list {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// matchURL matches the rule pattern against the request's lower-cased URL.
func (r *Rule) matchURL(m *matchCtx) bool {
	url := m.url
	switch {
	case r.anchorStart:
		end, ok := r.matchSegmentsAt(url, 0)
		return ok && (!r.anchorEnd || end == len(url))
	case r.anchorDomain:
		// A "||" rule may start at the beginning of the host or right
		// after any dot inside it.
		start, hostEnd := m.urlHost()
		for {
			if end, ok := r.matchSegmentsAt(url, start); ok && (!r.anchorEnd || end == len(url)) {
				return true
			}
			dot := strings.IndexByte(url[start:hostEnd], '.')
			if dot < 0 {
				return false
			}
			start += dot + 1
		}
	default:
		for start := 0; start <= len(url); start++ {
			if end, ok := r.matchSegmentsAt(url, start); ok && (!r.anchorEnd || end == len(url)) {
				return true
			}
			// Only the first segment's first byte constrains the start; skip
			// ahead cheaply when it is a literal.
			if len(r.segments) > 0 && r.segments[0][0] != '^' {
				if start+1 > len(url) {
					return false
				}
				if next := strings.IndexByte(url[start+1:], r.segments[0][0]); next >= 0 {
					start += next // loop increment adds 1
				} else {
					return false
				}
			}
		}
		return false
	}
}

// matchSegmentsAt matches all pattern segments beginning exactly at pos for
// the first segment, with later segments found anywhere after (wildcard
// semantics). It returns the position after the final segment.
func (r *Rule) matchSegmentsAt(url string, pos int) (int, bool) {
	if len(r.segments) == 0 {
		return pos, true
	}
	end, ok := matchSegmentAt(url, pos, r.segments[0])
	if !ok {
		return 0, false
	}
	pos = end
	for _, seg := range r.segments[1:] {
		found := false
		for p := pos; p <= len(url); p++ {
			if e, ok := matchSegmentAt(url, p, seg); ok {
				pos = e
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return pos, true
}

// matchSegmentAt matches one wildcard-free segment at an exact position.
// '^' matches a separator character or the end of the URL (only as the
// final character of the segment).
func matchSegmentAt(url string, pos int, seg string) (int, bool) {
	for i := 0; i < len(seg); i++ {
		if seg[i] == '^' {
			if pos == len(url) {
				if i == len(seg)-1 {
					return pos, true
				}
				return 0, false
			}
			if !isSeparator(url[pos]) {
				return 0, false
			}
			pos++
			continue
		}
		if pos >= len(url) || url[pos] != seg[i] {
			return 0, false
		}
		pos++
	}
	return pos, true
}

// isSeparator implements ABP's separator class: anything that is not a
// letter, digit, or one of "_-.%".
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}
