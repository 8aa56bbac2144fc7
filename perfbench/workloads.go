package main

import (
	"fmt"
	"sort"

	"reachac/internal/workload"
)

// servingPath is how a workload's operations reach the access-control
// stack.
type servingPath int

const (
	// embedded calls the reachac facade in-process.
	embedded servingPath = iota
	// httpDurable serves a durable network through internal/server on a
	// loopback listener and drives it with the typed client.
	httpDurable
)

// datasetSeed fixes each workload's ldbc graph and pre-shared resources:
// like a benchmark dataset they stay the same from run to run, while
// --seed varies the operation streams driven against them.
const datasetSeed = 1

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name string
	path servingPath
	// nodes is the ldbc user count.
	nodes int
	// planner enables cost-based routing (WithPlanner) over the Online
	// primary engine; otherwise the network serves the Online engine.
	planner bool
	// resources is how many resources are pre-shared.
	resources int
	scenario  workload.Scenario
	// gen shapes the per-worker generators beyond the scenario's mix;
	// Resources, Worker and Workers are filled in per run.
	gen workload.GenConfig
}

func lookupScenario(name string) workload.Scenario {
	sc, ok := workload.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("perfbench: scenario %q is not registered", name))
	}
	return sc
}

// workloads lists the benchmark's workloads. BENCHMARK.json records why
// each was chosen.
var workloads = []workloadSpec{
	// Skewed checks with 5% worker-partitioned edge toggles: readers pin
	// snapshots while writes force republication, so publication often
	// falls back to a full O(V+E) clone plus CSR build.
	{
		name:      "read-mostly-100k",
		path:      embedded,
		nodes:     100_000,
		resources: 48,
		scenario:  lookupScenario("read-heavy"),
		gen:       workload.GenConfig{ZipfS: 1.2},
	},
	// Read-only checks and 16-requester batches: the planner, the flat
	// product-BFS and decision-cache misses do the work, publication none.
	// A large ZipfV flattens both popularity curves to near-uniform and a
	// small hit fraction keeps most (resource, requester) pairs distinct,
	// so the decision cache sees several times more pairs than its cap.
	{
		name:      "cold-checks-100k",
		path:      embedded,
		nodes:     100_000,
		planner:   true,
		resources: 1024,
		scenario: workload.Scenario{
			Name: "cold-checks",
			Mix:  workload.Mix{Name: "cold-checks", Check: 0.80, CheckBatch: 0.20, BatchSize: 16},
		},
		gen: workload.GenConfig{ZipfS: 1.01, ZipfV: 1e6, HitFraction: 0.1},
	},
	// Mixed-shape traffic over loopback HTTP to a durable fsync-always
	// server: decode, admission, coalescer, WAL append and encode dominate.
	// The only workload with durable writes and with audiences.
	{
		name:      "http-durable-10k",
		path:      httpDurable,
		nodes:     10_000,
		resources: 48,
		scenario:  lookupScenario("mixed-shape"),
		gen:       workload.GenConfig{ZipfS: 1.2},
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}
