package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the quick test checks.
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

type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestQuick runs every workload at a tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is emitted with its unit,
// that the correctness pass ran clean and that no span self time is
// negative. It uses a seed other than the default.
func TestQuick(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			label := spec.name + "/untraced"
			if traced {
				want, label = bf.PerLayer, spec.name+"/traced"
			}
			t.Run(label, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(options{
					spec: spec, seed: 7, nodes: 600,
					workers: min(2, runtime.NumCPU()),
					window:  300 * time.Millisecond, warmup: 50 * time.Millisecond,
					trace: traced, setups: 2, samples: 300,
					dir: t.TempDir(), log: &log,
				})
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				var line resultLine
				if err := json.Unmarshal([]byte(res.json()), &line); err != nil {
					t.Fatalf("result line is not JSON: %v", err)
				}
				if !line.Correct || !strings.Contains(log.String(), "# correctness ") {
					t.Errorf("correctness pass did not run clean:\n%s", log.String())
				}
				if line.Attempted == 0 || line.Failed != 0 {
					t.Errorf("attempted=%d failed=%d", line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := line.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: emitted=%v unit %q, want unit %q", d.Name, ok, got.Unit, d.Unit)
					}
				}
				if traced && res.minSelf < 0 {
					t.Errorf("a span has negative self time %dns", res.minSelf)
				}
			})
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op.check", id: 1, start: 0, end: 100},
		// Overlapping children count once; a child running past its
		// parent is clipped.
		{name: "client.check", id: 2, parent: 1, start: 10, end: 60},
		{name: "client.check", id: 3, parent: 1, start: 50, end: 130},
		{name: "wire.check", id: 4, parent: 2, start: 5, end: 70},
	}
	got := selfTimes(spans)
	want := []int64{10, 0, 80, 65}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].id, got[i], want[i])
		}
	}
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	if _, err := recordHost(t.TempDir(), runtime.NumCPU()+1); err == nil {
		t.Fatal("recordHost accepted more workers than CPUs")
	}
}
