package drift

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"webmeasure/internal/tree"
)

// FuzzBaselineDecode hammers the baseline codec: arbitrary bytes must
// never panic, and anything DecodeBaseline accepts must re-encode and
// decode to the same bytes (the monitor trusts persisted baselines to
// round-trip).
func FuzzBaselineDecode(f *testing.F) {
	seed := mkBaseline(1, []string{"cdn.example", "tracker.example"}, []string{"tracker.example"}, 0.3)
	seed.SiteBaselines[0].Trees = []tree.Record{
		rec("a.example", "https://a.example/", "https://cdn.example/x.js"),
	}
	data, err := seed.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"meta":{"schema_version":1}}`))
	f.Add([]byte(`{"meta":{"schema_version":1},"site_baselines":[{"site":"a","trees":[{"site":"a","page_url":"p","profile":"x","nodes":[{"key":"p"}]}]}]}`))
	f.Fuzz(func(t *testing.T, input []byte) {
		b, err := DecodeBaseline(input)
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted baseline failed to encode: %v", err)
		}
		b2, err := DecodeBaseline(enc)
		if err != nil {
			t.Fatalf("re-encoded baseline rejected: %v", err)
		}
		enc2, err := b2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encode→decode→encode not byte-stable")
		}
	})
}

// FuzzParseRules hammers the rule-file parser: arbitrary bytes must never
// panic, and any rule set ParseRules accepts is a fixed point — its
// normalized rules re-encode and parse back to the same rules — and
// builds an engine unless two rules share a name.
func FuzzParseRules(f *testing.F) {
	data, err := json.Marshal(DefaultRules())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"a","metric":"tree_similarity","op":"lt","threshold":0.5}] []`))
	f.Add([]byte(`[{"name":"a","metric":"new_trackers","op":"ge","threshold":1e308,"consecutive":-1}]`))
	f.Add([]byte(`[{"name":"a","metric":"x","op":"eq","severity":"loud","extra":1}]`))
	f.Fuzz(func(t *testing.T, input []byte) {
		rules, err := ParseRules(bytes.NewReader(input))
		if err != nil {
			return
		}
		enc, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("accepted rules failed to encode: %v", err)
		}
		again, err := ParseRules(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded rules rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(rules, again) {
			t.Fatalf("rules changed on re-parse:\n%+v\n%+v", rules, again)
		}
		names := map[string]bool{}
		dup := false
		for _, r := range rules {
			dup = dup || names[r.Name]
			names[r.Name] = true
		}
		if _, err := NewEngine(rules); (err != nil) != dup {
			t.Fatalf("NewEngine error %v with duplicate names %v", err, dup)
		}
	})
}
