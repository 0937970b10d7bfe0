package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// The names, units, directions and bounds the harness emits are the ones
// BENCHMARK.json declares, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if s := endToEnd[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, s)
		}
	}
	for i, m := range doc.PerLayer {
		if s := perLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, s)
		}
	}
}

// Every workload runs at the tiny scale, passes its oracle checks, and
// emits every declared metric: untraced the end-to-end ones, none of them
// zero, traced the per-layer ones.
func TestSmokeEveryWorkload(t *testing.T) {
	traceDir = t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, 3, 0.05, traced, tiny)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Problems)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, s.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.Name, v)
				}
			}
			if traced {
				if _, err := os.Stat(traceDir + "/" + name + ".trace.jsonl"); err != nil {
					t.Errorf("%s: no trace written: %v", name, err)
				}
				if gap := res.Metrics["bench.budget_gap_share"]; gap > 0.02 {
					t.Errorf("%s: self times miss the parent spans by %.1f %%", name, 100*gap)
				}
			}
		}
	}
}

// The budget gives every instant of a root span to the deepest span active
// then, so overlapping children are not counted twice and the parts add up.
func TestBudgetAddsUp(t *testing.T) {
	b := newBudget()
	b.add([]bspan{
		{id: 1, name: "bench.op", proc: -1, start: 0, end: 100},
		{id: 2, parent: 1, name: "core.a", proc: -1, start: 10, end: 60},
		{id: 3, parent: 1, name: "core.b", proc: -1, start: 40, end: 90}, // overlaps core.a for 20
	}, nil)
	if b.parent != 100 || b.total() != 100 {
		t.Fatalf("parent %v, sum of self times %v, want 100 and 100", b.parent, b.total())
	}
	if b.self["bench.op"] != 20 || b.self["core.a"]+b.self["core.b"] != 80 {
		t.Fatalf("self times %v", b.self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	med, q1, q3 := quartiles([]float64{11, 1, 7, 2, 4})
	if med != 4 || q1 != 1.5 || q3 != 9 {
		t.Fatalf("got median %v q1 %v q3 %v", med, q1, q3)
	}
}
