package webmeasure

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"webmeasure/internal/metrics"
)

// renderGoldenArch is the architecture the digests below were recorded
// on. Go may fuse multiply-adds into FMA instructions on other
// architectures, which can move the last bit of a float and with it a
// printed digit, so the pinned bytes are checked only here.
const renderGoldenArch = "amd64"

// renderGoldens pins the sha256 of every rendered artifact — report.txt,
// result.json, each WriteCSVFiles file and the WriteCSV stream — for two
// fixed experiments. The other determinism suites are relative (workers
// 1 vs 8, JSONL vs columnar, whole vs sharded); these absolute digests
// are what proves a refactor of the analysis or the renderers kept the
// bytes.
var renderGoldens = []struct {
	name    string
	cfg     Config
	digests map[string]string
}{
	{
		name: "seed11-10x4-clean",
		cfg:  Config{Seed: 11, Sites: 10, PagesPerSite: 4},
		digests: map[string]string{
			"csv.stream":                       "1ee46631a03a85e3a18de7a58b0b81ea73c9b65e452e6c3a031b870bdf2dd0d7",
			"csv/fig2_similarity_dist.csv":     "ec03f49d29413135fb74d305443f067df15fbfd72ff631e88f4d55082d5c787e",
			"csv/fig3_node_types.csv":          "d461e80f618bb03a41fc0b83ab4803fec85075b7e711b96d40dd47d77c78b3c3",
			"csv/fig4_similarity_by_depth.csv": "c7ab773cfcac1ed4e8d51745ce6926832c8ef534c5e4c78c76e5fc62be572238",
			"csv/fig7_type_depth.csv":          "e26c5dc0f9f670eb038add220195e626394d228656755b13992c876002904e21",
			"csv/fig8_children_by_depth.csv":   "c170e44ec7df7a2c7cbc1cc1c4d0f172deb7dc69d942fb782d87dcf2d193b9ff",
			"csv/table2_tree_overview.csv":     "6839a607898b649bb5b97b8fb4b37c38f64b9e9f557ee50a53992a9bf55c912e",
			"csv/table3_depth_similarity.csv":  "162146019786ef94a4b67ce39fb7db401d5a267f54fa2108e5a20d02098d2dee",
			"csv/table4_resource_chains.csv":   "e40f38bfc0c6fddb5e0f7609e199f982e1be871b1a2f4f454eb2c87944eda12a",
			"csv/table5_profile_totals.csv":    "96b68b6201ea787428bf23d22f35372665790f2f9803e0ad77774c82af49c272",
			"csv/table6_profile_diffs.csv":     "34621d94f96afe965d21ebff28cb71ce9ed4f8c5fca497b3f2c0cfcb4650c918",
			"csv/table7_rank_buckets.csv":      "e5293da1ff832ce7b0e2791b2fa61dc0841724383856875ca1295bb92de01ace",
			"csv/vetting.csv":                  "b26812465fe1795e4787541fc316c70c9d1a179049a53256dead7b7ae9648a4a",
			"report.txt":                       "420d1077358e627b76a3b44536064227ff74383e55c31e549fd5ac9ed35fdb17",
			"result.json":                      "9609e50f9a9d797c2d431e142a56d604c8f0a41337e18774b8194fde680687f5",
		},
	},
	{
		name: "seed5-12x3-heavy",
		cfg:  Config{Seed: 5, Sites: 12, PagesPerSite: 3, FaultProfile: "heavy"},
		digests: map[string]string{
			"csv.stream":                       "fcf04143c4c076d368e665e004887902d9397985a20f329eee70991a5260842f",
			"csv/fig2_similarity_dist.csv":     "111ae5deb94324bcd84227a6d0db93c9d6d1abd63a243af8a82f2ff1a7e4e1e6",
			"csv/fig3_node_types.csv":          "ff8ee964bbd31592d9e907377acb9454aab66095e207411b8c118fb784d76f42",
			"csv/fig4_similarity_by_depth.csv": "3dbd60b79772652857473c8f97916073a07cd517d527b30ef5c653ab3a9fbf67",
			"csv/fig7_type_depth.csv":          "6be0d41fd259411c1163ccf8fabeba0ee27a7ab2547fbf2a36b3da1050852282",
			"csv/fig8_children_by_depth.csv":   "1528212cfa51592cc7be8d95326e7b54634bb46aea2631034037d91f43366e84",
			"csv/table2_tree_overview.csv":     "1da5591a398c3ffa6ad3c6cc97855f3ae9451303045e4a7a497191f3c57274bc",
			"csv/table3_depth_similarity.csv":  "6e00ea3445d9ae98409014ea02331506aca6fcfc819c74796f4a00b1c2bc8df8",
			"csv/table4_resource_chains.csv":   "b3acfc1a700cfa6447b84cf1cbf52954bd96bf0e8c3769171d61a2f0e5ff9d81",
			"csv/table5_profile_totals.csv":    "43ae8deebf6c65863c62ff12fee95e3565e58434de7eccaca00f8a7351895c98",
			"csv/table6_profile_diffs.csv":     "51c9731cb90195e04b950e7389821d0bc548fb07c22e16be75dd61073f52bcbf",
			"csv/table7_rank_buckets.csv":      "3c24db495a8851e69cb61f13aa309e0a964250be1bf4fd1d1dfc7729a2bcc9f7",
			"csv/vetting.csv":                  "605f6f00c249340eb702943138fc79cf93269078e89d20f6504e9dbf9570814b",
			"report.txt":                       "d1c780c5850da37c7fdb505209c2f5d112595d358004c435711e608ea3b51444",
			"result.json":                      "efc321a313b45f44c53aa83cb6c84aaa30512ae4624ec239d5fccf9e1d757a71",
		},
	},
}

// renderDigests renders every artifact of res and returns its sha256 by
// artifact name ("csv/<file>" for the per-table files, "csv.stream" for
// the concatenated stream).
func renderDigests(t *testing.T, res *Results) map[string]string {
	t.Helper()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	out := map[string]string{}
	var rep, js, stream bytes.Buffer
	res.WriteReport(&rep)
	out["report.txt"] = sum(rep.Bytes())
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	out["result.json"] = sum(js.Bytes())
	if err := res.WriteCSV(&stream); err != nil {
		t.Fatal(err)
	}
	out["csv.stream"] = sum(stream.Bytes())
	dir := t.TempDir()
	if err := res.WriteCSVFiles(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["csv/"+e.Name()] = sum(b)
	}
	return out
}

// TestRenderDigestsPinned requires every rendered artifact of the two
// golden experiments to hash to its recorded digest, and the artifact
// inventory to match exactly.
func TestRenderDigestsPinned(t *testing.T) {
	if runtime.GOARCH != renderGoldenArch {
		t.Skipf("render digests recorded on %s; running on %s", renderGoldenArch, runtime.GOARCH)
	}
	for _, g := range renderGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := renderDigests(t, res)
			names := make([]string, 0, len(got))
			for name := range got {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if want, ok := g.digests[name]; !ok {
					t.Errorf("unpinned artifact %s (sha256 %s)", name, got[name])
				} else if got[name] != want {
					t.Errorf("%s: sha256 %s, pinned %s", name, got[name], want)
				}
			}
			for name := range g.digests {
				if _, ok := got[name]; !ok {
					t.Errorf("pinned artifact %s no longer rendered", name)
				}
			}
		})
	}
}

// TestRenderersShareOneModel renders every artifact of one Results and
// requires the derived results behind them to have been computed once:
// the JSON bundle alone builds only the model's first stage, the other
// renderers add the second on top of it, and the stability and
// tracking-study phases run exactly once across all of them.
func TestRenderersShareOneModel(t *testing.T) {
	reg := metrics.New()
	res, err := Run(context.Background(), Config{Seed: 11, Sites: 10, PagesPerSite: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runs := func() map[string]int64 {
		out := map[string]int64{}
		for _, h := range reg.Snapshot().Histograms {
			out[h.Name] = h.Count
		}
		return out
	}
	if err := res.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := runs()["analysis.derived_ms"]; got != 1 {
		t.Errorf("WriteJSON alone built %d model stages, want 1", got)
	}
	res.WriteReport(io.Discard)
	if err := res.WriteCSVFiles(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"analysis.stability_ms": 1, "analysis.casestudy.tracking_ms": 1, "analysis.derived_ms": 2}
	got := runs()
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s timed %d runs across all renderers, want %d", name, got[name], n)
		}
	}
}

// TestConcurrentRendersMatchSequential renders all outputs of one Results
// from several goroutines at once — the first to arrive builds the model
// while the others wait on it — and requires the bytes of a sequential
// render. Run it under -race.
func TestConcurrentRendersMatchSequential(t *testing.T) {
	cfg := Config{Seed: 11, Sites: 10, PagesPerSite: 4}
	seq, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderArtifacts(t, seq)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 2
	got := make([][3]bytes.Buffer, copies)
	errs := make([][2]error, copies)
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		wg.Add(3)
		go func(c int) { defer wg.Done(); res.WriteReport(&got[c][0]) }(c)
		go func(c int) { defer wg.Done(); errs[c][0] = res.WriteJSON(&got[c][1]) }(c)
		go func(c int) { defer wg.Done(); errs[c][1] = res.WriteCSV(&got[c][2]) }(c)
	}
	wg.Wait()
	for c := 0; c < copies; c++ {
		for _, err := range errs[c] {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, name := range [3]string{"report", "json", "csv"} {
			if w := [3][]byte{want.report, want.json, want.csv}[i]; !bytes.Equal(got[c][i].Bytes(), w) {
				t.Errorf("concurrent %s render %d differs from the sequential render", name, c)
			}
		}
	}
}
