package colstore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzColBlockDecode throws arbitrary bytes at the block decoder. The
// decoder must never panic and never over-allocate (every count is
// validated against the remaining payload before allocation), and any
// payload it accepts must re-encode to the identical bytes — the decoder
// and encoder are exact inverses on the valid subset of inputs.
func FuzzColBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(EncodeBlockPayload("seed.org", nil))
	f.Add(EncodeBlockPayload("seed.org", siteRows("seed.org", 0, 1, 1)))
	f.Add(EncodeBlockPayload("seed.org", siteRows("seed.org", 3, 2, 3)))
	big := EncodeBlockPayload("big.example", siteRows("big.example", 0, 4, 2))
	f.Add(big)
	// A corrupted valid payload seeds the interesting error paths.
	mut := bytes.Clone(big)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, payload []byte) {
		sb, err := DecodeBlockPayload(payload)
		if err != nil {
			return
		}
		rows := make([]VisitRow, len(sb.Visits))
		ascending := true
		for i := range sb.Visits {
			rows[i] = VisitRow{Seq: sb.Seqs[i], Visit: sb.Visits[i]}
			if i > 0 && sb.Seqs[i-1] >= sb.Seqs[i] {
				ascending = false
			}
		}
		// Seq deltas of zero decode fine but are unreachable from the
		// Writer (it enforces strictly ascending rows), so only strictly
		// ascending payloads are expected to round-trip canonically.
		if !ascending {
			return
		}
		re := EncodeBlockPayload(sb.Site, rows)
		if !bytes.Equal(re, payload) {
			sb2, err := DecodeBlockPayload(re)
			if err != nil {
				t.Fatalf("re-encoded payload fails to decode: %v", err)
			}
			// Non-canonical but semantically lossless inputs (e.g. an
			// over-long varint) may re-encode shorter; the decoded values
			// must still agree.
			if sb2.Site != sb.Site || !reflect.DeepEqual(sb2.Seqs, sb.Seqs) || !reflect.DeepEqual(sb2.Visits, sb.Visits) {
				t.Fatalf("decode→encode→decode is not value-stable")
			}
		}
	})
}

// FuzzOpenCol throws arbitrary bytes at the random-access path: the
// footer, the index and every block it lists. Opening and reading must
// never panic, whatever the footer claims. When every block reads, the
// blocks written back through Writer must open again and decode to the
// same sites and rows.
func FuzzOpenCol(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	valid := seedFile(f, map[string][]VisitRow{
		"a.org": siteRows("a.org", 0, 2, 2),
		"b.org": siteRows("b.org", 10, 1, 1),
	})
	f.Add(valid)
	f.Add(wrappedBlockFile(f))
	mut := bytes.Clone(valid)
	mut[len(mut)-20] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var blocks []*SiteBlock
		for i := range r.Index().Blocks {
			sb, err := r.Block(i)
			if err == nil {
				blocks = append(blocks, sb)
			}
		}
		if len(blocks) < len(r.Index().Blocks) {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, sb := range blocks {
			if w.WriteSite(sb.Site, rowsOf(sb)) != nil {
				return
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := OpenReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatalf("reopening the rewritten file: %v", err)
		}
		if len(r2.Index().Blocks) != len(blocks) {
			t.Fatalf("rewritten file lists %d blocks, want %d", len(r2.Index().Blocks), len(blocks))
		}
		for i, sb := range blocks {
			got, err := r2.Block(i)
			if err != nil {
				t.Fatalf("rewritten block %d: %v", i, err)
			}
			if !bytes.Equal(EncodeBlockPayload(got.Site, rowsOf(got)), EncodeBlockPayload(sb.Site, rowsOf(sb))) {
				t.Fatalf("rewritten block %d (%s) does not round-trip", i, sb.Site)
			}
		}
	})
}

// rowsOf pairs a decoded block's visits with their sequence numbers.
func rowsOf(sb *SiteBlock) []VisitRow {
	rows := make([]VisitRow, len(sb.Visits))
	for i, v := range sb.Visits {
		rows[i] = VisitRow{Seq: sb.Seqs[i], Visit: v}
	}
	return rows
}
