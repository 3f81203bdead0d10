// Command perfbench is the repository's benchmark: it times the serving
// simulator and the capacity planner end to end, and layer by layer in a
// separate traced pass, on four seeded workloads. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload closed_loop_flash --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every
// result check passed, the reps attempted and failed, and the metrics —
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
// Earlier lines are the run manifest and a readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Seeds recorded for claims: defaultSeed is the one to tune against,
// heldOutSeed is kept back to confirm a claimed gain on unseen inputs.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// Worker budget: GOMAXPROCS is pinned to at most maxProcs (and never
// above the host's CPU count), so a run measures the same parallelism on
// any host that has two cores.
const maxProcs = 2

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: open_stream | closed_loop_flash | observed_closed_loop | plan_capacity")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of timed reps")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	inst, setups, err := setUp(w, *seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	m, err := json.Marshal(manifest(w, *seed, *seconds, *traced, inst))
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	fmt.Printf("manifest: %s\n", m)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 0 {
		res = endToEnd(inst, setups, budget)
	} else {
		if res, err = perLayer(inst, setups, budget); err != nil {
			return fmt.Errorf("%s traced pass: %w", w.name, err)
		}
	}
	return res.report(os.Stdout)
}

// setupTimes holds the set-up samples: each set-up's process CPU time and
// the wall time of the trace-generation step inside it.
type setupTimes struct {
	total    []float64
	generate []float64
}

// setUp builds the workload's inputs many times and returns the last
// instance. Set-up is short and noisy, so each of setupSamples samples
// is the mean over a batch of set-ups lasting at least setupBatch, and
// setup_s is their median. The samples are CPU time: on a shared host,
// wall time of the same set-up drifted by over a third between sets of
// runs twenty minutes apart, CPU time by about a tenth.
func setUp(w workload, seed uint64) (*instance, setupTimes, error) {
	const (
		setupSamples = 21
		setupBatch   = 5 * time.Millisecond
	)
	var st setupTimes
	// Two unrecorded set-ups: the first warms code and caches, the
	// second sizes the batch.
	inst, err := w.setup(seed, 1)
	if err != nil {
		return nil, st, err
	}
	start := time.Now()
	if inst, err = w.setup(seed, 1); err != nil {
		return nil, st, err
	}
	batch := max(1, int(setupBatch/max(time.Since(start), 1)))
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		generate := 0.0
		c0 := cpuSeconds()
		for j := 0; j < batch; j++ {
			if inst, err = w.setup(seed, 1); err != nil {
				return nil, st, err
			}
			generate += inst.generateS
		}
		st.total = append(st.total, (cpuSeconds()-c0)/float64(batch))
		st.generate = append(st.generate, generate/float64(batch))
	}
	return inst, st, nil
}

// repStat is one rep's host cost.
type repStat struct {
	wall, cpu float64
	allocs    float64
	bytes     float64
	gcs       float64
}

// series is the reps of one pass (untraced, traced, or control).
type series struct {
	stats    []repStat
	outs     []outcome
	layers   []*layerCounts
	failed   int
	digest   string
	firstErr error
}

// runReps runs reps until the budget is spent (and at least minReps),
// checking every result against the first rep's digest.
func runReps(rep repFunc, traced bool, budget time.Duration) series {
	var s series
	began := time.Now()
	for i := 0; i < minReps || time.Since(began) < budget; i++ {
		st, o, lc, err := measure(rep, traced)
		if err = checkOutcome(o, err, s.digest); err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = err
			}
		} else if s.digest == "" {
			s.digest = o.Digest
		}
		s.stats = append(s.stats, st)
		s.outs = append(s.outs, o)
		if lc != nil {
			s.layers = append(s.layers, lc)
		}
	}
	return s
}

// measure runs one rep with a collection before it, outside the timed
// region, so one rep's garbage is not charged to the next.
func measure(rep repFunc, traced bool) (repStat, outcome, *layerCounts, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	o, lc, err := rep(traced)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return repStat{
		wall:   wall,
		cpu:    cpu,
		allocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:  float64(m1.TotalAlloc - m0.TotalAlloc),
		gcs:    float64(m1.NumGC - m0.NumGC),
	}, o, lc, err
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

func (s series) col(f func(repStat) float64) []float64 {
	xs := make([]float64, len(s.stats))
	for i, st := range s.stats {
		xs[i] = f(st)
	}
	return xs
}

func (s series) median(f func(repStat) float64) float64 { return median(s.col(f)) }

func cpuOf(r repStat) float64    { return r.cpu }
func wallOf(r repStat) float64   { return r.wall }
func allocsOf(r repStat) float64 { return r.allocs }

// manifest records what a result was measured on and with.
func manifest(w workload, seed uint64, seconds float64, traced int, inst *instance) map[string]any {
	m := map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"held_out_seed": uint64(heldOutSeed),
		"seconds":       seconds,
		"trace":         traced,
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"vcs_revision":  "unknown",
		"vcs_modified":  "unknown",
		"config":        inst.config,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["vcs_revision"] = s.Value
			case "vcs.modified":
				m["vcs_modified"] = s.Value
			}
		}
	}
	return m
}
