package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmeasure"
)

// writeTinyDataset crawls a tiny universe and writes its dataset to a temp
// JSONL file, returning the path and the matching flag values.
func writeTinyDataset(t *testing.T) string {
	t.Helper()
	res, err := webmeasure.Run(context.Background(), webmeasure.Config{
		Seed: 7, Sites: 5, PagesPerSite: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDataset(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeSmoke feeds a tiny crawled dataset through the command's run
// function and checks the full report plus both export formats appear.
func TestAnalyzeSmoke(t *testing.T) {
	path := writeTinyDataset(t)
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "bundle.json")
	csvDir := filepath.Join(dir, "csv")
	traceOut := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-i", path, "-sites", "5", "-pages", "3", "-seed", "7",
		"-workers", "2", "-progress", "0",
		"-json", jsonOut, "-csv", csvDir, "-trace", traceOut,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	for _, want := range []string{"Table 1", "Table 2", "Figure 1"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "analysis.pages.vetted=") {
		t.Errorf("stderr missing metrics snapshot:\n%s", stderr.String())
	}
	for _, want := range []string{"analysis.derived_ms n=2", "Stage breakdown", "analyze.compare"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil || !strings.Contains(string(raw), `"traceEvents"`) {
		t.Errorf("-trace output missing or malformed: %v", err)
	}
	if fi, err := os.Stat(jsonOut); err != nil || fi.Size() == 0 {
		t.Errorf("JSON bundle missing or empty: %v", err)
	}
	entries, err := os.ReadDir(csvDir)
	if err != nil || len(entries) == 0 {
		t.Errorf("CSV export missing: %v (%d files)", err, len(entries))
	}
}

// TestAnalyzeWorkersAgree runs the same dataset with 1 and 8 workers and
// requires the rendered reports to be byte-identical — the command-level
// face of the determinism guarantee.
func TestAnalyzeWorkersAgree(t *testing.T) {
	path := writeTinyDataset(t)
	reportWith := func(workers string) string {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{
			"-i", path, "-sites", "5", "-pages", "3", "-seed", "7",
			"-workers", workers, "-progress", "0",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, stderr.String())
		}
		return stdout.String()
	}
	if one, eight := reportWith("1"), reportWith("8"); one != eight {
		t.Error("reports differ between -workers 1 and -workers 8")
	}
}

func TestAnalyzeBadInput(t *testing.T) {
	var buf bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &buf, &buf); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if code := run(context.Background(), []string{"-i", filepath.Join(t.TempDir(), "missing.jsonl")}, &buf, &buf); code != 1 {
		t.Errorf("missing dataset should exit 1, got %d", code)
	}
}

// failWriter fails every write, as stdout does when its pipe or disk is
// gone.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestAnalyzeReportWriteFails requires a report that could not be written
// to stdout to fail the run instead of exiting 0 with nothing written.
func TestAnalyzeReportWriteFails(t *testing.T) {
	path := writeTinyDataset(t)
	var stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-i", path, "-sites", "5", "-pages", "3", "-seed", "7", "-progress", "0",
	}, failWriter{}, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "write report") {
		t.Errorf("unwritable stdout: exit %d, want 1 with a write error on stderr:\n%s", code, stderr.String())
	}
}
