package dataset

import (
	"bytes"
	"testing"

	"webmeasure/internal/measurement"
)

// FuzzReadJSONL hammers the JSONL decoder: arbitrary bytes must never
// panic, and any dataset ReadJSONL accepts must survive
// WriteJSONL → ReadJSONL → WriteJSONL with identical bytes — the resume
// path and the format converters trust a loaded dataset to write back
// unchanged.
func FuzzReadJSONL(f *testing.F) {
	v := visit("a.example", "https://a.example/", "Sim1", true)
	v.Requests = append(v.Requests, measurement.Request{
		URL: "https://cdn.example/x.js?s=1", Type: measurement.TypeScript, FrameID: 0,
		CallStack:  []measurement.StackFrame{{FuncName: "f", URL: "https://a.example/"}},
		SetCookies: []string{"id=1; Path=/"}, Status: 200, BodySize: 12, TrueParentURL: "https://a.example/",
	})
	d := New()
	d.Add(v)
	d.Add(visit("a.example", "https://a.example/p", "Sim2", false))
	var seed bytes.Buffer
	if err := d.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"site":"s","requests":[{"url":"ÿ\ud800","type":"script"}],"start_offset_s":1e-7}`))
	f.Add([]byte(`{"site":1}`))
	f.Fuzz(func(t *testing.T, input []byte) {
		ds, err := ReadJSONL(bytes.NewReader(input))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ds.WriteJSONL(&first); err != nil {
			t.Fatalf("accepted dataset failed to encode: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded dataset rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSONL(&second); err != nil {
			t.Fatalf("re-read dataset failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
