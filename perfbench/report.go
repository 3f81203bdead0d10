package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"litegpu/internal/inference"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestBenchmarkJSONMatchesRunner keeps them in
// step.
type metricDef struct{ name, unit string }

// End-to-end metrics, each gated by a bound in BENCHMARK.json. Host
// times are CPU times: on a shared host, wall time drifts with other
// tenants' load by more than any bound can absorb.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rep_cpu_s", "s"},
	{"allocs_per_rep", "allocs"},
	{"alloc_mb_per_rep", "MB"},
	{"peak_rss_mb", "MB"},
}

// wallMetrics are what a user waits for. An untraced run prints them
// beside the end-to-end metrics; they are recorded, ungated, among the
// per-layer metrics.
var wallMetrics = []metricDef{
	{"rep_wall_s", "s"},
	{"sim_req_per_s", "req/s"},
}

// Per-layer metrics. Units: s and ns are host time, sim_s is simulated
// time, count is an exact count that repeats across runs of one seed,
// allocs and cycles are host-measured counts that may jitter.
var perLayerMetrics = []metricDef{
	{"trace.next_calls", "count"},
	{"trace.next_s", "s"},
	{"trace.generate_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_req", "events/req"},
	{"sim.ns_per_event", "ns"},
	{"sim.drive_ns.depth_1e1", "ns"},
	{"sim.drive_ns.depth_1e3", "ns"},
	{"sim.drive_ns.depth_1e5", "ns"},
	{"serve.self_s", "s"},
	{"serve.queue_peak", "count"},
	{"serve.prefill_busy", "sim_s"},
	{"serve.decode_busy", "sim_s"},
	{"serve.completed", "count"},
	{"serve.shed", "count"},
	{"serve.retries", "count"},
	{"serve.timeouts", "count"},
	{"serve.goodput_tok_s", "tok/sim_s"},
	{"serve.ttft_p99_s", "sim_s"},
	{"kv.preemptions", "count"},
	{"kv.peak_blocks", "count"},
	{"kv.recompute_tokens", "count"},
	{"kv.drive_ns_per_op", "ns"},
	{"netsim.transfers", "count"},
	{"netsim.inflight_peak", "count"},
	{"netsim.network_bound_frac", "ratio"},
	{"netsim.drive_ns_per_transfer", "ns"},
	{"obs.overhead_cpu_s", "s"},
	{"obs.overhead_allocs", "allocs"},
	{"obs.export_s", "s"},
	{"obs.seen", "count"},
	{"obs.held", "count"},
	{"obs.probe_rows", "count"},
	{"plan.candidates", "count"},
	{"plan.rungs", "count"},
	{"plan.cpu_per_rung_s", "s"},
	{"sweep.parallelism", "ratio"},
	{"inference.run_ns.prefill", "ns"},
	{"inference.run_ns.decode", "ns"},
	{"rep_wall_s", "s"},
	{"sim_req_per_s", "req/s"},
	{"host.gc_cycles", "cycles"},
	{"host.traced_overhead_cpu_s", "s"},
	{"error_rate", "ratio"},
}

// result is one run's report: the reps attempted and failed, and each
// metric's value, with its quartiles and sample count where it is a
// median over reps.
type result struct {
	defs              []metricDef // reported in the result object
	extra             []metricDef // printed in the readable lines only
	attempted, failed int
	errs              []error
	values            map[string]float64
	spreads           map[string]summary
	notes             []string
}

func newResult(defs []metricDef) result {
	return result{defs: defs, values: map[string]float64{}, spreads: map[string]summary{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setMedian(name string, xs []float64) {
	s := summarize(xs)
	r.values[name] = s.Median
	r.spreads[name] = s
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setWall records the wall-time metrics of an untraced pass.
func (r *result) setWall(s series) {
	rates := make([]float64, len(s.stats))
	for i, o := range s.outs {
		rates[i] = float64(o.Arrived) / s.stats[i].wall
	}
	r.setMedian("rep_wall_s", s.col(wallOf))
	r.setMedian("sim_req_per_s", rates)
}

// absorb adds a pass's reps to the attempted and failed totals.
func (r *result) absorb(s series) {
	r.attempted += len(s.stats)
	r.failed += s.failed
	if s.firstErr != nil {
		r.errs = append(r.errs, s.firstErr)
	}
}

// mismatch fails every remaining rep of pass s: its results disagree
// with another pass over the same inputs.
func (r *result) mismatch(s series, err error) {
	r.failed += len(s.stats) - s.failed
	r.errs = append(r.errs, err)
}

// minReps is the fewest reps a pass runs, whatever its budget.
const minReps = 3

// endToEnd times untraced reps and reports the end-to-end metrics.
func endToEnd(inst *instance, st setupTimes, budget time.Duration) result {
	res := newResult(endToEndMetrics)
	s := runReps(inst.rep, false, budget)
	res.absorb(s)
	res.extra = wallMetrics
	res.setMedian("setup_s", st.total)
	res.setMedian("rep_cpu_s", s.col(cpuOf))
	res.setWall(s)
	res.setMedian("allocs_per_rep", s.col(allocsOf))
	res.setMedian("alloc_mb_per_rep", s.col(func(r repStat) float64 { return r.bytes / 1e6 }))
	res.set("peak_rss_mb", peakRSSMB())
	res.note("result digest %s; arrived %d, completed %d per rep", s.digest, s.outs[0].Arrived, s.outs[0].Completed)
	res.note("error_rate %g (%d of %d reps failed)", ratio(res.failed, res.attempted), res.failed, res.attempted)
	return res
}

// perLayer runs the untraced and traced passes (and, for an observed
// workload, its observer-free control) on equal shares of the budget,
// then the standalone layer drives, and reports the per-layer metrics.
func perLayer(inst *instance, st setupTimes, budget time.Duration) (result, error) {
	res := newResult(perLayerMetrics)
	passes := 2
	if inst.control != nil {
		passes = 3
	}
	share := budget / time.Duration(passes)
	u := runReps(inst.rep, false, share)
	t := runReps(inst.rep, true, share)
	res.absorb(u)
	res.absorb(t)
	if t.digest != u.digest {
		res.mismatch(t, fmt.Errorf("traced digest %s differs from untraced %s", t.digest, u.digest))
	}
	var lc layerCounts
	if len(t.layers) > 0 {
		lc = *t.layers[0]
		for _, other := range t.layers[1:] {
			if countsOf(*other) != countsOf(lc) {
				res.mismatch(t, fmt.Errorf("traced counts differ between reps: %+v vs %+v", countsOf(*other), countsOf(lc)))
				break
			}
		}
	}

	uCPU, tCPU := u.median(cpuOf), t.median(cpuOf)
	res.setMedian("trace.next_s", layerCol(t, func(l *layerCounts) float64 { return l.NextS }))
	res.set("trace.next_calls", float64(lc.NextCalls))
	res.setMedian("trace.generate_s", st.generate)
	res.set("sim.events", float64(lc.Events))
	res.set("sim.events_per_req", ratioF(float64(lc.Events), float64(t.outs[0].Arrived)))
	res.set("sim.ns_per_event", ratioF(uCPU*1e9, float64(lc.Events)))
	res.setMedian("serve.self_s", layerCol(t, func(l *layerCounts) float64 { return l.RunS - l.NextS }))
	res.set("serve.queue_peak", float64(lc.QueuePeak))
	res.set("serve.prefill_busy", lc.PrefillBusy)
	res.set("serve.decode_busy", lc.DecodeBusy)
	res.set("serve.completed", float64(lc.Completed))
	res.set("serve.shed", float64(lc.Shed))
	res.set("serve.retries", float64(lc.Retries))
	res.set("serve.timeouts", float64(lc.Timeouts))
	res.set("serve.goodput_tok_s", lc.GoodputTokS)
	res.set("serve.ttft_p99_s", lc.TTFTP99)
	res.set("kv.preemptions", float64(lc.Preemptions))
	res.set("kv.peak_blocks", float64(lc.PeakBlocks))
	res.set("kv.recompute_tokens", float64(lc.RecomputeTokens))
	res.set("netsim.transfers", float64(lc.Transfers))
	res.set("netsim.inflight_peak", float64(lc.InflightPeak))
	res.set("netsim.network_bound_frac", lc.NetworkBoundFrac)
	res.setMedian("obs.export_s", layerCol(t, func(l *layerCounts) float64 { return l.ExportS }))
	res.set("obs.seen", float64(lc.Seen))
	res.set("obs.held", float64(lc.Held))
	res.set("obs.probe_rows", float64(lc.ProbeRows))
	res.set("plan.candidates", float64(lc.Candidates))
	res.set("plan.rungs", float64(lc.Rungs))
	res.set("plan.cpu_per_rung_s", ratioF(uCPU, float64(lc.Rungs)))
	res.set("sweep.parallelism", ratioF(uCPU, u.median(wallOf)))
	res.setWall(u)
	res.setMedian("host.gc_cycles", u.col(func(r repStat) float64 { return r.gcs }))
	res.set("host.traced_overhead_cpu_s", tCPU-uCPU)

	// The observer's cost: an observed workload against its observer-free
	// control, else the traced pass (which attaches the observer) against
	// the untraced one. The planner takes no observer.
	switch {
	case inst.control != nil:
		c := runReps(inst.control, false, share)
		res.absorb(c)
		if c.digest != u.digest {
			res.mismatch(c, fmt.Errorf("observer changed results: control digest %s, observed %s", c.digest, u.digest))
		}
		res.set("obs.overhead_cpu_s", uCPU-c.median(cpuOf))
		res.set("obs.overhead_allocs", u.median(allocsOf)-c.median(allocsOf))
	case lc.Candidates == 0:
		res.set("obs.overhead_cpu_s", tCPU-uCPU)
		res.set("obs.overhead_allocs", t.median(allocsOf)-u.median(allocsOf))
	default:
		res.set("obs.overhead_cpu_s", 0)
		res.set("obs.overhead_allocs", 0)
	}

	drives := []struct {
		name string
		run  func() (float64, error)
	}{
		{"sim.drive_ns.depth_1e1", func() (float64, error) { return driveEngine(10) }},
		{"sim.drive_ns.depth_1e3", func() (float64, error) { return driveEngine(1000) }},
		{"sim.drive_ns.depth_1e5", func() (float64, error) { return driveEngine(100_000) }},
		{"kv.drive_ns_per_op", func() (float64, error) { return driveKV(inst.drive.kvBlocks) }},
		{"netsim.drive_ns_per_transfer", func() (float64, error) { return driveFabric(lc.InflightPeak) }},
		{"inference.run_ns.prefill", func() (float64, error) { return driveInference(inst.drive, inference.Prefill, 4) }},
		{"inference.run_ns.decode", func() (float64, error) { return driveInference(inst.drive, inference.Decode, 64) }},
	}
	for _, d := range drives {
		v, err := d.run()
		if err != nil {
			return res, fmt.Errorf("%s: %w", d.name, err)
		}
		res.set(d.name, v)
	}
	res.set("error_rate", ratio(res.failed, res.attempted))
	res.note("result digest %s (untraced) %s (traced)", u.digest, t.digest)
	return res, nil
}

// countsOf is a traced rep's counts with its host times zeroed: the part
// that must repeat exactly from rep to rep.
func countsOf(l layerCounts) layerCounts {
	l.NextS, l.RunS, l.ExportS = 0, 0, 0
	return l
}

func layerCol(s series, f func(*layerCounts) float64) []float64 {
	xs := make([]float64, len(s.layers))
	for i, l := range s.layers {
		xs[i] = f(l)
	}
	return xs
}

func ratio(num, den int) float64 { return ratioF(float64(num), float64(den)) }

func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report prints the readable lines, then the result object as the last
// line of output.
func (r result) report(w io.Writer) error {
	for _, defs := range [][]metricDef{r.defs, r.extra} {
		for _, d := range defs {
			v := r.values[d.name]
			if s, ok := r.spreads[d.name]; ok {
				fmt.Fprintf(w, "%-30s %14.6g %-10s (%s)\n", d.name, v, d.unit, s)
			} else {
				fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	metrics := map[string]map[string]any{}
	for _, d := range r.defs {
		metrics[d.name] = map[string]any{"value": r.values[d.name], "unit": d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, err := range r.errs {
		fmt.Fprintln(w, "check failed:", err)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
