package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// tinySizes run every workload's code path in about a second each.
var tinySizes = map[string]size{
	"paper":   {Scale: 0.01, Periods: 2},
	"ops":     {Scale: 0.02, Periods: 8},
	"catalog": {Events: 6, Records: 2, Points: 600, Periods: 8},
	"longrec": {Records: 2, Points: 2000, Periods: 4},
}

func TestWorkloadsAtTinySize(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				out := t.TempDir()
				res, err := measure(w, tinySizes[w.name], config{seed: 1, trace: traced, out: out}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d runs failed", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
						t.Errorf("metric %s = %+v, want a number in %s", m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, got.Value)
					}
				}
				if traced {
					for _, f := range []string{"spans.jsonl", "layers.json"} {
						if info, err := os.Stat(filepath.Join(out, "trace", w.name, f)); err != nil || info.Size() == 0 {
							t.Errorf("traced pass wrote no %s: %v", f, err)
						}
					}
				}
				if entries, _ := os.ReadDir(filepath.Join(out, "work")); len(entries) != 0 {
					t.Errorf("work directory left behind: %v", entries)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 40, 20, 30, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s.Median != 5.5 || s.IQR != 5.5 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		label string
	}{{39, ""}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}}
	for _, c := range cases {
		label, v, ok := tailQuantile(seq(c.n))
		if ok != (c.label != "") || label != c.label {
			t.Errorf("n=%d: tail %q (ok %v), want %q", c.n, label, ok, c.label)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: %s = %g leaves %d samples beyond it", c.n, label, v, beyond)
			}
		}
	}
}

func TestDigestCatchesFlippedByteAndScratch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("SS01.v1", "input")
	write("SS01l.v2", "product one")
	write("SS01l.r", "product two")
	write("_filter.exe", "not a product")
	inputs := map[string]bool{"SS01.v1": true}
	ref, err := digestProducts(dir, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Files) != 2 {
		t.Fatalf("digest covers %v, want the two products", ref.Files)
	}
	write("SS01.v1", "changed input")
	if got, err := digestProducts(dir, inputs, nil); err != nil || ref.diff(got) != "" {
		t.Fatalf("an input change is not a product change: %v %q", err, ref.diff(got))
	}
	write("SS01l.r", "product twO")
	if got, err := digestProducts(dir, inputs, nil); err != nil || ref.diff(got) == "" {
		t.Fatalf("flipped byte not caught (err %v)", err)
	}
	write("SS01l.r", "product two")
	if err := os.Mkdir(filepath.Join(dir, "tmp_def_00_SS01"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := digestProducts(dir, inputs, nil); err == nil {
		t.Fatal("leftover scratch directory not caught")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int                           `json:"run_seconds"`
		Workloads  []struct{ Name string }       `json:"workloads"`
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's default run is %d s", spec.RunSeconds, runSeconds)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []struct{ name, unit string }) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		units := map[string]string{}
		for _, m := range declared {
			units[m.Name] = m.Unit
		}
		for _, m := range emitted {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: emitted %s (%s), BENCHMARK.json has %q", kind, m.name, m.unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
}
