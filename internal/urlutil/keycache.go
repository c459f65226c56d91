package urlutil

import "webmeasure/internal/psl"

// KeyCache is a pre-computed normalization table: raw URL → (normalized
// node key, dense key id, dense raw id, stripped flag). One cache covers
// one site's string universe — a columnar block's interned string table,
// or the URLs of an in-memory site's visits — so Normalize, a full URL
// parse, runs once per distinct string per site instead of once per
// request per visit, and consumers that index by the int32 ids (the tree
// builder's node table and tracking decisions) skip string hashing
// entirely. A cache is immutable after construction and safe for
// concurrent readers.
type KeyCache struct {
	refs map[string]Ref
	keys []string
	// sites holds the eTLD+1 per key id ("" when the key has no
	// registrable host). Normalize preserves the host, so Site(key) ==
	// Site(raw) for every raw mapping to the key; consumers classifying
	// first- vs third-party read the table instead of re-parsing URLs.
	sites []string
}

// Ref is one raw string's cached normalization.
type Ref struct {
	// Key is Normalize(raw)'s node key and ID its dense key id.
	Key string
	ID  int32
	// RawID is the raw string's own dense id: distinct raw strings get
	// 0, 1, 2, … in first-seen order. Two raws normalizing to one key
	// share ID but not RawID, so tables keyed on RawID may hold facts
	// that depend on the exact URL (filter-list decisions).
	RawID int32
	// Stripped reports whether normalization dropped a query value.
	Stripped bool
}

// BuildKeyCache normalizes every raw string once and assigns dense ids to
// the distinct raw strings and to the distinct normalized keys, both in
// first-seen order. Non-URL strings in the input (profile names, header
// values) simply normalize to themselves and cost one table entry;
// callers pass whatever string universe their visits reference.
func BuildKeyCache(raws []string) *KeyCache {
	// The tables grow to the distinct count rather than being sized by
	// len(raws): callers may pass every occurrence of a string, and the
	// cache outlives this call.
	c := &KeyCache{refs: make(map[string]Ref)}
	ids := make(map[string]int32)
	// A site's URLs span few hosts; resolve each host's eTLD+1 once.
	sites := make(map[string]string)
	list := psl.Default()
	for _, raw := range raws {
		if _, ok := c.refs[raw]; ok {
			continue
		}
		key, stripped, host := normalize(raw)
		id, ok := ids[key]
		if !ok {
			id = int32(len(c.keys))
			ids[key] = id
			c.keys = append(c.keys, key)
			site, ok := sites[host]
			if !ok && host != "" {
				site = list.RegistrableDomain(host)
				sites[host] = site
			}
			// Site(raw) is Site(key) (see sites above), so the first
			// raw's host stands for the key's.
			c.sites = append(c.sites, site)
		}
		c.refs[raw] = Ref{Key: c.keys[id], ID: id, RawID: int32(len(c.refs)), Stripped: stripped}
	}
	return c
}

// Lookup resolves a raw URL to its cached normalization. ok is false when
// the URL was not in the cache's universe (or c is nil); callers then
// fall back to Normalize directly.
func (c *KeyCache) Lookup(raw string) (ref Ref, ok bool) {
	if c == nil {
		return Ref{}, false
	}
	ref, ok = c.refs[raw]
	return ref, ok
}

// SiteByID returns the eTLD+1 of the key with the given id ("" when the
// key has no registrable host). The id must come from Lookup on this
// cache.
func (c *KeyCache) SiteByID(id int32) string {
	return c.sites[id]
}

// NumKeys returns the number of distinct normalized keys — the exclusive
// upper bound of the key ids Lookup returns.
func (c *KeyCache) NumKeys() int {
	if c == nil {
		return 0
	}
	return len(c.keys)
}

// NumRaw returns the number of distinct raw strings — the exclusive upper
// bound of the raw ids Lookup returns.
func (c *KeyCache) NumRaw() int {
	if c == nil {
		return 0
	}
	return len(c.refs)
}
