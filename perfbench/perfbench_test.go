package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smoke returns a smoke-size run of workload w: short rounds, a handful
// of replayed requests and a three-point sweep.
func smoke(t *testing.T, w string, trace bool) *result {
	t.Helper()
	b := &bench{workload: w, seed: defaultSeed, seconds: time.Second, trace: trace,
		root: "..", out: t.TempDir(), size: smokeSize}
	res, err := b.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.errs)
	}
	line, err := res.json(trace)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result line, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	return res
}

// TestSmokeAllWorkloads runs every workload at smoke size with tracing off
// and checks that each end-to-end metric is measured and positive. A
// three-point sweep's result and decisions take a few KiB, within the heap
// reading's noise, so its retention is left out.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, false)
			for _, d := range endToEnd {
				if w == paperSweep && d.name == "retained_kib_per_run" {
					continue
				}
				if v := res.values[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// TestLayerCountsRepeat runs every workload's traced pass twice at one seed:
// each per-layer count must repeat exactly, so later changes can cite
// counts as evidence.
func TestLayerCountsRepeat(t *testing.T) {
	counted := map[string]string{
		serveExisting: "csa.sbf.evals",
		serveFlatSim:  "hypersim.sched_invocations",
		serveChurn:    "alloc.kmeans.iterations",
		paperSweep:    "alloc.hyper.permutations",
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			counts := func() map[string]float64 {
				res := smoke(t, w, true)
				out := map[string]float64{}
				for _, d := range perLayer {
					if strings.HasPrefix(d.unit, "count/req") || strings.HasSuffix(d.name, "_ratio") {
						out[d.name] = res.values[d.name]
					}
				}
				return out
			}
			first, second := counts(), counts()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("counts differ between two traced runs:\n%v\n%v", first, second)
			}
			if name := counted[w]; !(first[name] > 0) {
				t.Errorf("%s = %v on %s, want > 0", name, first[name], w)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the ones this command measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, want %d", len(got), what, len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s (%s), want %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
