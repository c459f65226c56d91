package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the benchmark and cmd/serve, runs every workload at
// the tiny size untraced and traced, and checks that every catalog
// metric appears with its unit and that every output check passed. The
// analyze workload runs on a second seed too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	dir := t.TempDir()
	bench, serve := filepath.Join(dir, "perfbench"), filepath.Join(dir, "serve")
	for _, b := range [][2]string{{bench, "."}, {serve, "webmeasure/cmd/serve"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b[1], err, out)
		}
	}
	type run struct {
		workload string
		seed     string
		trace    string
	}
	runs := []run{{"analyze", "2", "0"}}
	for _, w := range []string{"analyze", "crawl", "serve", "epochs"} {
		runs = append(runs, run{w, "1", "0"}, run{w, "1", "1"})
	}
	for _, r := range runs {
		r := r
		t.Run(r.workload+"/seed"+r.seed+"/trace"+r.trace, func(t *testing.T) {
			cmd := exec.Command(bench, "--workload", r.workload, "--seed", r.seed, "--seconds", "1",
				"--trace", r.trace, "--size", "tiny", "--serve-bin", serve,
				"--work", filepath.Join(dir, "work"), "--out", filepath.Join(dir, "results"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, stdout.String())
			}
			defs := endToEnd
			if r.trace == "1" {
				defs = perLayer
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("got %d metrics, want %d", len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
				}
				if !strings.Contains(stdout.String(), d.Name) {
					t.Errorf("metric %s not printed by name", d.Name)
				}
			}
			if r.trace == "0" {
				for _, d := range ungated {
					if !strings.Contains(stdout.String(), d.Name) {
						t.Errorf("ungated metric %s not printed", d.Name)
					}
				}
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON holds BENCHMARK.json's metric lists to
// the names, units and directions the benchmark prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			g, w := c.got[i], c.want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s", c.name, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50.5) > 1e-6 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := hdQuantile(xs, 0.9); got < 89 || got > 92 {
		t.Errorf("p90 of 1..100 = %v, want about 90.9", got)
	}
	if got := hdQuantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}

func TestBucketQuantile(t *testing.T) {
	bs := []bucket{{le: 10, count: 50}, {le: 20, count: 100}, {le: math.Inf(1), count: 100}}
	if got := bucketQuantile(bs, 0.5); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := bucketQuantile(bs, 0.9); math.Abs(got-18) > 1e-9 {
		t.Errorf("p90 = %v, want 18", got)
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
