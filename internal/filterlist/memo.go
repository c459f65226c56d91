package filterlist

import (
	"container/list"
	"strconv"
	"sync"

	"webmeasure/internal/urlutil"
)

// Memo wraps a List with a bounded LRU over match decisions, so EasyList
// matching is paid once per unique request instead of once per visit: the
// same tracker URL re-requested by every page and profile of a crawl hits
// the cache after its first classification.
//
// The cache key is (URL, page host, resource type). The page host subsumes
// everything a rule can read from the issuing page — the $third-party bit
// (urlutil.IsThirdParty compares registrable domains, a pure function of
// the two hosts) and the $domain include/exclude lists — so two requests
// with equal keys always match identically.
type Memo struct {
	list *List
	cap  int

	mu  sync.Mutex
	lru *list.List // most-recent first; values are *memoEntry
	idx map[string]*list.Element

	// One-entry page-URL → host cache: Build classifies a whole visit
	// against one page URL, so the host parse is paid once per page, not
	// once per request.
	lastPageURL string
	lastHost    string

	hits, misses uint64
}

type memoEntry struct {
	key string
	val bool
}

// DefaultMemoSize is the memo capacity NewMemo picks by default: large
// enough to hold every unique (URL, host, type) of a multi-thousand-page
// crawl, small enough to stay a few megabytes of keys. (The tree builder
// keeps its own per-site decision tables on key-cache ids instead.)
const DefaultMemoSize = 1 << 16

// NewMemo builds a match memo over l holding up to capacity decisions
// (capacity <= 0 selects DefaultMemoSize).
func NewMemo(l *List, capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoSize
	}
	return &Memo{
		list: l,
		cap:  capacity,
		lru:  list.New(),
		idx:  make(map[string]*list.Element, capacity/4),
	}
}

// List returns the wrapped filter list.
func (m *Memo) List() *List { return m.list }

// Matches is List.Matches behind the memo.
func (m *Memo) Matches(req Request) bool {
	m.mu.Lock()
	host := m.lastHost
	if req.PageURL != m.lastPageURL {
		m.mu.Unlock()
		host = urlutil.Host(req.PageURL)
		m.mu.Lock()
		m.lastPageURL, m.lastHost = req.PageURL, host
	}
	key := req.URL + "\x00" + host + "\x00" + strconv.Itoa(int(req.Type))
	if el, ok := m.idx[key]; ok {
		m.hits++
		m.lru.MoveToFront(el)
		val := el.Value.(*memoEntry).val
		m.mu.Unlock()
		return val
	}
	m.misses++
	m.mu.Unlock()

	// Match outside the lock so a miss does not serialize the worker
	// pool on the rule engine; concurrent misses on the same key just
	// compute the same decision twice.
	val := m.list.Matches(req)

	m.mu.Lock()
	if _, ok := m.idx[key]; !ok {
		m.idx[key] = m.lru.PushFront(&memoEntry{key: key, val: val})
		for m.lru.Len() > m.cap {
			oldest := m.lru.Back()
			m.lru.Remove(oldest)
			delete(m.idx, oldest.Value.(*memoEntry).key)
		}
	}
	m.mu.Unlock()
	return val
}

// Stats returns the cumulative hit/miss counters.
func (m *Memo) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len returns the number of cached decisions.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}
