package urlutil

import (
	"strings"
	"testing"
)

// FuzzNormalize guards the node-identity normalization against arbitrary
// input: it must never panic, must be idempotent, and must never leave a
// non-empty query value behind.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		"https://foo.com/scriptA.js?s_id=1234",
		"https://foo.com/a.js?x=&y=",
		"http://[::1",
		"//proto-relative.example/x?a=b",
		"https://h.example/p?a=1&a=2&b&c=",
		"https://h.example/%zz?bad=escape",
		"?only=query",
		strings.Repeat("a", 300) + "?k=v",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		norm, _ := Normalize(raw)
		again, stripped := Normalize(norm)
		if again != norm {
			t.Fatalf("not idempotent: %q → %q → %q", raw, norm, again)
		}
		if stripped {
			t.Fatalf("second pass stripped values: %q → %q", raw, norm)
		}
	})
}

// FuzzSite guards eTLD+1 extraction: never panic; the result, when
// non-empty, must be a suffix of the host.
func FuzzSite(f *testing.F) {
	for _, s := range []string{
		"https://a.b.example.co.uk/x",
		"https://com/",
		"https://127.0.0.1:8080/",
		"garbage",
		"https://.leading.dot.example/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		site := Site(raw)
		if site == "" {
			return
		}
		// The PSL layer canonicalizes FQDN trailing dots away.
		host := strings.TrimSuffix(Host(raw), ".")
		if host != site && !strings.HasSuffix(host, "."+site) {
			t.Fatalf("Site(%q) = %q not a suffix of host %q", raw, site, host)
		}
	})
}

// FuzzKeyCache pins the key cache to the functions it precomputes. For
// arbitrary raw strings (a duplicate included), Lookup must return
// Normalize's key and stripped flag, SiteByID of the key id must equal
// Site of the raw string — the claim that lets consumers classify
// parties from the key table — and raw ids must be dense in first-seen
// order and stable across lookups.
func FuzzKeyCache(f *testing.F) {
	f.Add("https://foo.com/a.js?s=1", "https://FOO.com/a.js?s=2", "https://a.b.example.co.uk:8443/x#f")
	f.Add("http://[::1", "text/javascript", "")
	f.Add("//proto-relative.example/x?a=b", "HTTPS://Sub.Site.example./p?x", "https://com/")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		raws := []string{a, b, a, c}
		kc := BuildKeyCache(raws)
		var order []string
		seen := map[string]int32{}
		for _, raw := range raws {
			if _, ok := seen[raw]; !ok {
				seen[raw] = int32(len(order))
				order = append(order, raw)
			}
		}
		if kc.NumRaw() != len(order) {
			t.Fatalf("NumRaw = %d, want %d distinct raws", kc.NumRaw(), len(order))
		}
		keys := map[string]int32{}
		for _, raw := range raws {
			ref, ok := kc.Lookup(raw)
			if !ok {
				t.Fatalf("Lookup(%q) missed a raw the cache was built from", raw)
			}
			key, stripped := Normalize(raw)
			if ref.Key != key || ref.Stripped != stripped {
				t.Fatalf("Lookup(%q) = (%q, %v), Normalize = (%q, %v)", raw, ref.Key, ref.Stripped, key, stripped)
			}
			if ref.RawID != seen[raw] {
				t.Fatalf("Lookup(%q).RawID = %d, want first-seen id %d", raw, ref.RawID, seen[raw])
			}
			if id, ok := keys[key]; ok && id != ref.ID {
				t.Fatalf("key %q has ids %d and %d", key, id, ref.ID)
			}
			keys[key] = ref.ID
			if ref.ID < 0 || int(ref.ID) >= kc.NumKeys() {
				t.Fatalf("key id %d outside [0, %d)", ref.ID, kc.NumKeys())
			}
			if got, want := kc.SiteByID(ref.ID), Site(raw); got != want {
				t.Fatalf("SiteByID(Lookup(%q)) = %q, Site = %q", raw, got, want)
			}
		}
		if len(keys) != kc.NumKeys() {
			t.Fatalf("NumKeys = %d, want %d distinct keys", kc.NumKeys(), len(keys))
		}
	})
}
