package webmeasure

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webmeasure/internal/core"
	"webmeasure/internal/dataset"
)

// cancelAfter is a context that cancels itself on its n-th Err call: the
// analysis polls Err once per page, so the cancel lands mid-load at a
// reproducible point instead of racing a timer.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// writeColFile writes columnar bytes to a file and opens it, so the load
// reads the file in place through its footer.
func writeColFile(t *testing.T, name string, data []byte) io.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// nonSeekable hides the seekability of columnar bytes, so the load must
// read the stream into memory before it can consult the footer.
func nonSeekable(t *testing.T, _ string, data []byte) io.Reader {
	return io.MultiReader(bytes.NewReader(data))
}

// waitGoroutines waits for the goroutine count to settle back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the load", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestColIndexedLoadFailures drives the columnar loader into both ways
// it can stop early — a corrupted block and a context canceled mid-load —
// and requires the error, no partial Results, and no goroutine left
// behind by the analysis pool. Each case runs on a seekable file and on
// a non-seekable stream.
func TestColIndexedLoadFailures(t *testing.T) {
	cfg := Config{Seed: 5, Sites: 12, PagesPerSite: 3, Workers: 2}
	_, col := crawlBytes(t, cfg)
	rd, err := dataset.OpenCol(bytes.NewReader(col), int64(len(col)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := rd.Index().Blocks
	if len(blocks) < 4 {
		t.Fatalf("fixture has %d blocks, want at least 4", len(blocks))
	}
	for _, in := range []struct {
		suffix string
		open   func(t *testing.T, name string, data []byte) io.Reader
	}{{"", writeColFile}, {"-stream", nonSeekable}} {
		t.Run("corrupt-block"+in.suffix, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := len(blocks) / 2
			bad := append([]byte(nil), col...)
			bad[blocks[k].Offset+blocks[k].Length/2] ^= 0xff
			badRd, err := dataset.OpenCol(bytes.NewReader(bad), int64(len(bad)))
			if err != nil {
				t.Fatal(err)
			}
			_, decodeErr := badRd.Block(k)
			if decodeErr == nil {
				t.Fatal("flipping a payload byte did not corrupt the block")
			}
			res, err := LoadAndAnalyzeContext(context.Background(), in.open(t, "bad.col", bad), cfg)
			if err == nil || res != nil {
				t.Fatalf("corrupt block %d: got results %v, err %v; want only an error", k, res != nil, err)
			}
			if !strings.Contains(err.Error(), decodeErr.Error()) {
				t.Errorf("error %q does not carry the block's decode error %q", err, decodeErr)
			}
			waitGoroutines(t, base)
		})

		t.Run("canceled-mid-load"+in.suffix, func(t *testing.T) {
			base := runtime.NumGoroutine()
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &cancelAfter{Context: parent, cancel: cancel}
			ctx.left.Store(8)
			res, err := LoadAndAnalyzeContext(ctx, in.open(t, "ok.col", col), cfg)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("canceled load: got results %v, err %v; want context.Canceled only", res != nil, err)
			}
			if ctx.left.Load() > 0 {
				t.Fatal("the load finished before the cancel fired")
			}
			waitGoroutines(t, base)
		})

		// The same bytes load cleanly, so both failures came from the faults.
		base := runtime.NumGoroutine()
		if _, err := LoadAndAnalyzeContext(context.Background(), in.open(t, "clean.col", col), cfg); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	}
}

// TestAssembleFromPartialsCanceled requires a merge under a canceled
// context to return the context's error and no Results, and the same
// partials to merge cleanly under a live one.
func TestAssembleFromPartialsCanceled(t *testing.T) {
	cfg := Config{Seed: 5, Sites: 12, PagesPerSite: 3, Workers: 2, Shards: 2}
	parts := make([]*core.Partial, cfg.Shards)
	for i := range parts {
		shardCfg := cfg
		shardCfg.ShardIndex = i
		res, err := Run(context.Background(), shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = res.Partial(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AssembleFromPartials(ctx, cfg, parts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled merge: got results %v, err %v; want context.Canceled only", res != nil, err)
	}
	if _, err := AssembleFromPartials(context.Background(), cfg, parts); err != nil {
		t.Fatal(err)
	}
}
