package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"rankedaccess/internal/database"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test
// checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at tiny n, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its
// unit, that no request failed, and that the writer's lateness is
// reported.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				t.Setenv("TMPDIR", t.TempDir())
				w, ok := workloads[wl.Name]
				if !ok {
					t.Fatalf("workload %s of BENCHMARK.json is not in the program", wl.Name)
				}
				w.n = 4096
				var stdout, stderr bytes.Buffer
				cfg := runConfig{w: w, seed: 3, seconds: 1, traced: trace == "1", log: &stderr}
				if code := runAndPrint(cfg, &stdout); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
				if trace == "1" && res.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate = %v", res.Metrics["error_rate"].Value)
				}
				if wl.Name == "read_hot_write" {
					if trace == "1" && res.Metrics["loadgen.late_ms_p99"].Value <= 0 {
						t.Errorf("generator lateness not measured: %v", res.Metrics["loadgen.late_ms_p99"])
					}
					if !strings.Contains(stderr.String(), "generator late") {
						t.Errorf("generator lateness not reported:\n%s", stderr.String())
					}
				}
			})
		}
	}
}

// TestOracleCatchesCorruption records real answers through the SDK,
// checks that the oracle accepts them, then corrupts one and checks
// that exactly that answer is caught and counted as a failure.
func TestOracleCatchesCorruption(t *testing.T) {
	w := workloads["read_uniform"]
	w.n = 2048
	const seed = 5
	s, _, err := boot(w, generate(w.n, seed), []*database.Instance(nil), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ctx := context.Background()
	d := newRankDist(s.total, false, 9)
	var recs []answerRec
	for i := 0; i < 20; i++ {
		k := d.access()
		ans, err := s.pq.Access(ctx, k)
		if err != nil || len(ans) != 1 {
			t.Fatalf("access %d: %v %v", k, err, ans)
		}
		recs = append(recs, answerRec{k: k, h: hashRows(ans[0].Tuple), op: opAccess})
		k0 := d.window()
		rows, err := s.pq.Range(ctx, k0, min(k0+rangeWidth, s.total))
		if err != nil {
			t.Fatalf("range %d: %v", k0, err)
		}
		recs = append(recs, answerRec{k: k0, h: hashRows(rows...), op: opRange})
	}
	var c checker
	if err := c.checkAnswers(w, seed, recs); err != nil {
		t.Fatal(err)
	}
	if !c.ok() || c.failed != 0 {
		t.Fatalf("true answers rejected: %v", c.problems)
	}

	ans, err := s.pq.Access(ctx, recs[4].k)
	if err != nil {
		t.Fatal(err)
	}
	ans[0].Tuple[2]++ // one wrong value in one answer
	recs[4].h = hashRows(ans[0].Tuple)
	c = checker{}
	if err := c.checkAnswers(w, seed, recs); err != nil {
		t.Fatal(err)
	}
	if c.ok() || c.wrong != 1 || c.failed != 1 {
		t.Fatalf("corrupted answer: wrong=%d failed=%d ok=%v, want exactly one caught", c.wrong, c.failed, c.ok())
	}
}
