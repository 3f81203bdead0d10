package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Reference values from Python's statistics.median and
		// statistics.quantiles(xs, n=4).
		{xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{3, 1, 2}, med: 2, q1: 1, q3: 3},
		{xs: []float64{1, 2}, med: 1.5, q1: 0.75, q3: 2.25},
		{xs: []float64{4, 1, 3, 2, 5}, med: 3, q1: 1.5, q3: 4.5},
		{xs: []float64{7}, med: 7, q1: 7, q3: 7},
		{xs: nil, med: 0, q1: 0, q3: 0},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}

func TestCheckOutcomeRejectsBadResults(t *testing.T) {
	good := outcome{Arrived: 10, Completed: 8, Digest: "abc", Fired: []mechanism{{"shed", true}}}
	if err := checkOutcome(good, nil, "abc"); err != nil {
		t.Fatalf("good outcome rejected: %v", err)
	}
	tamper := func(f func(*outcome)) outcome {
		o := good
		o.Fired = append([]mechanism(nil), good.Fired...)
		f(&o)
		return o
	}
	for name, c := range map[string]struct {
		o   outcome
		err error
	}{
		"run error":       {o: good, err: errors.New("simulate: boom")},
		"nothing done":    {o: tamper(func(o *outcome) { o.Completed = 0 })},
		"more than came":  {o: tamper(func(o *outcome) { o.Completed = o.Arrived + 1 })},
		"mechanism idle":  {o: tamper(func(o *outcome) { o.Fired[0].OK = false })},
		"digest tampered": {o: tamper(func(o *outcome) { o.Digest = "abd" })},
	} {
		if err := checkOutcome(c.o, c.err, "abc"); err == nil {
			t.Errorf("%s: accepted %+v", name, c.o)
		}
	}
}

// TestRepsRepeat runs every workload at a tenth of its size: two traced
// reps and an untraced one pass every result check, agree on the digest,
// and count exactly the same per-layer work.
func TestRepsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(3, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			var digest string
			var counts []layerCounts
			for _, traced := range []bool{true, true, false} {
				o, lc, err := inst.rep(traced)
				if err := checkOutcome(o, err, digest); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				digest = o.Digest
				if traced {
					counts = append(counts, countsOf(*lc))
				}
			}
			if counts[0] != counts[1] {
				t.Errorf("traced counts differ:\n%+v\n%+v", counts[0], counts[1])
			}
			if inst.control != nil {
				o, _, err := inst.control(false)
				if err := checkOutcome(o, err, digest); err != nil {
					t.Errorf("observer-free control: %v", err)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], runner %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "open_stream", "--seconds", "0"},
		{"--workload", "open_stream", "--trace", "2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
