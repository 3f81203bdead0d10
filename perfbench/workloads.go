package main

import (
	"fmt"
	"io"
	"time"

	"litegpu"
	"litegpu/internal/mathx"
)

// workload is one named benchmark input set. setup builds a run's inputs
// from the seed; it is what setup_s times. scale multiplies the
// workload's traffic horizon: the benchmark runs at 1, tests at a tiny
// fraction.
type workload struct {
	name  string
	setup func(seed uint64, scale float64) (*instance, error)
}

// instance is one workload set up for one seed.
type instance struct {
	// config is recorded in the run manifest.
	config any
	// generateS is the host time set-up spent generating the trace (for
	// a streamed workload, building the stream).
	generateS float64
	// rep runs the workload once through the public entry points.
	rep repFunc
	// control, when set, is the observer-free twin of an observed
	// workload: a rep over the same inputs without the observer.
	control repFunc
	// Parameters of the standalone layer drives.
	drive driveParams
}

// repFunc runs one rep. The traced form also returns the per-layer
// counts.
type repFunc func(traced bool) (outcome, *layerCounts, error)

// layerCounts is what one traced rep measured per layer. Counts are
// exact and repeat across reps; NextS, RunS and ExportS are host seconds.
type layerCounts struct {
	NextCalls int
	NextS     float64 // host time inside the request source's Next
	RunS      float64 // host time of the run call

	Events      uint64 // cluster-wide engine events at the last probe
	QueuePeak   int
	PrefillBusy float64 // simulated busy instance-seconds
	DecodeBusy  float64

	Completed, Shed, Retries, Timeouts int
	GoodputTokS                        float64
	TTFTP99                            float64

	Preemptions, PeakBlocks, RecomputeTokens int

	Transfers        int
	InflightPeak     int
	NetworkBoundFrac float64

	ExportS    float64
	Seen, Held int
	ProbeRows  int
	Candidates int
	Rungs      int
}

// driveParams sizes the standalone layer drives after the workload's own
// deployment.
type driveParams struct {
	kvBlocks int
	gpu      litegpu.GPU
	model    litegpu.Transformer
	prefill  int // tensor-parallel degree of a prefill instance
	decode   int
}

// The benchmark's workloads, in the order BENCHMARK.json lists them.
var workloads = []workload{
	{name: "open_stream", setup: setupOpenStream},
	{name: "closed_loop_flash", setup: func(seed uint64, scale float64) (*instance, error) {
		return setupClosedLoop(seed, scale, false)
	}},
	{name: "observed_closed_loop", setup: func(seed uint64, scale float64) (*instance, error) {
		return setupClosedLoop(seed, scale, true)
	}},
	{name: "plan_capacity", setup: setupPlan},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Observer settings of the observed workload and of every traced serve
// rep: the default timeline reservoir plus 5-second probes, as
// litegpu-serve -trace-out/-probe-out -probe-interval 5 run.
const probeInterval = 5

// serveRun is one cluster simulation's inputs: either a materialized
// trace (ServeCluster) or a lazy stream factory (ServeClusterFrom).
type serveRun struct {
	cc      litegpu.ServeClusterConfig
	reqs    []litegpu.Request
	stream  func() (litegpu.RequestSource, error)
	horizon litegpu.Seconds
	seed    uint64
	// observe attaches the observer to untraced reps too, exporting
	// both its artifacts to a discard writer.
	observe bool
	// fired lists the mechanisms the workload must show working.
	fired func(cm litegpu.ServeClusterMetrics, rec *litegpu.Observer) []mechanism
}

func (r *serveRun) source() (litegpu.RequestSource, error) {
	if r.reqs != nil {
		return &sliceSource{reqs: r.reqs}, nil
	}
	return r.stream()
}

func (r *serveRun) rep(traced bool) (outcome, *layerCounts, error) {
	cc := r.cc
	var rec *litegpu.Observer
	if r.observe || traced {
		rec = litegpu.NewObserver(litegpu.ObserverOptions{Seed: r.seed, ProbeInterval: probeInterval})
		cc.Observer = rec
	}
	var (
		cm  litegpu.ServeClusterMetrics
		err error
		lc  *layerCounts
	)
	switch {
	case traced:
		var src litegpu.RequestSource
		if src, err = r.source(); err != nil {
			return outcome{}, nil, err
		}
		ts := &timedSource{src: src}
		start := time.Now()
		cm, err = litegpu.ServeClusterFrom(cc, ts, r.horizon)
		lc = &layerCounts{NextCalls: ts.calls, NextS: ts.spent.Seconds(), RunS: time.Since(start).Seconds()}
	case r.reqs != nil:
		cm, err = litegpu.ServeCluster(cc, r.reqs, r.horizon)
	default:
		var src litegpu.RequestSource
		if src, err = r.stream(); err != nil {
			return outcome{}, nil, err
		}
		cm, err = litegpu.ServeClusterFrom(cc, src, r.horizon)
	}
	if err != nil {
		return outcome{}, nil, err
	}
	if rec != nil {
		start := time.Now()
		if err := rec.WriteTrace(io.Discard); err != nil {
			return outcome{}, nil, fmt.Errorf("export timeline: %w", err)
		}
		if err := rec.WriteProbesCSV(io.Discard); err != nil {
			return outcome{}, nil, fmt.Errorf("export probes: %w", err)
		}
		if lc != nil {
			lc.ExportS = time.Since(start).Seconds()
		}
	}
	o := outcome{
		Arrived:   cm.Total.Arrived,
		Completed: cm.Total.Completed,
		Digest:    digest(cm),
		Fired:     r.fired(cm, rec),
	}
	if lc != nil {
		fillServeCounts(lc, cm, rec)
	}
	return o, lc, nil
}

// fillMetricCounts copies the simulated outcome counts of one serving
// result.
func fillMetricCounts(lc *layerCounts, m litegpu.ServeMetrics) {
	lc.Completed, lc.Shed, lc.Retries, lc.Timeouts = m.Completed, m.Shed, m.ClientRetries, m.ClientTimeouts
	lc.GoodputTokS, lc.TTFTP99 = m.Goodput, m.TTFT.P99
	lc.Preemptions, lc.PeakBlocks, lc.RecomputeTokens = m.KVPreemptions, m.KVPeakBlocks, m.KVRecomputeTokens
	lc.Transfers, lc.NetworkBoundFrac = m.NetTransfers, m.NetworkBoundFraction
}

// fillServeCounts copies a traced serve rep's counts from its metrics
// and its observer's probes.
func fillServeCounts(lc *layerCounts, cm litegpu.ServeClusterMetrics, rec *litegpu.Observer) {
	fillMetricCounts(lc, cm.Total)
	lc.Held, lc.Seen = rec.Sampled()
	probes := rec.Probes()
	lc.ProbeRows = len(probes)
	// Busy totals sum each pool's last sample in pool order, so the float
	// sum is the same on every rep.
	last := make([]litegpu.ObserverProbeSample, len(cm.Pools))
	for _, p := range probes {
		lc.QueuePeak = max(lc.QueuePeak, p.Queue)
		lc.InflightPeak = max(lc.InflightPeak, p.NetInFlight)
		last[p.Pool] = p
	}
	for _, p := range last {
		lc.PrefillBusy += p.PrefillBusy
		lc.DecodeBusy += p.DecodeBusy
	}
	if n := len(probes); n > 0 {
		lc.Events = probes[n-1].Events
	}
}

// wantProbeRows is the probe row count a run to the horizon must
// record: one row per pool at every tick in (0, horizon].
func wantProbeRows(pools int, horizon litegpu.Seconds) int {
	return pools * int(float64(horizon)/probeInterval)
}

// sliceSource feeds a materialized trace through the RequestSource
// interface, so traced reps of every serve workload run the same entry
// point under the same timing wrapper.
type sliceSource struct {
	reqs []litegpu.Request
	i    int
}

func (s *sliceSource) Next() (litegpu.Request, bool) {
	if s.i >= len(s.reqs) {
		return litegpu.Request{}, false
	}
	s.i++
	return s.reqs[s.i-1], true
}

// timedSource counts and times the simulator's pulls from a request
// source: the trace layer's share of a streamed run.
type timedSource struct {
	src   litegpu.RequestSource
	calls int
	spent time.Duration
}

func (t *timedSource) Next() (litegpu.Request, bool) {
	start := time.Now()
	r, ok := t.src.Next()
	t.spent += time.Since(start)
	t.calls++
	return r, ok
}

func model(name string) (litegpu.Transformer, error) {
	m, ok := litegpu.ModelByName(name)
	if !ok {
		return litegpu.Transformer{}, fmt.Errorf("model catalog has no %s", name)
	}
	return m, nil
}

// tpFor returns the minimum feasible prefill and decode tensor-parallel
// degrees, the auto-sizing the CLIs, the sweep and the planner apply.
func tpFor(gpu litegpu.GPU, m litegpu.Transformer) (prefill, decode int, err error) {
	opts := litegpu.DefaultOptions()
	if prefill, err = litegpu.MinFeasibleTP(gpu, m, litegpu.Prefill, opts); err != nil {
		return 0, 0, err
	}
	if decode, err = litegpu.MinFeasibleTP(gpu, m, litegpu.Decode, opts); err != nil {
		return 0, 0, err
	}
	return prefill, decode, nil
}

// setupOpenStream builds the open-loop production-scale stream: about
// 10⁶ short requests (2000 req/s over 500 s) routed by JSQ across an H100
// phase-split pool and a Lite continuous-batching pool.
func setupOpenStream(seed uint64, scale float64) (*instance, error) {
	horizon := litegpu.Seconds(500 * scale)
	m, err := model("Llama3-8B")
	if err != nil {
		return nil, err
	}
	hp, hd, err := tpFor(litegpu.H100(), m)
	if err != nil {
		return nil, err
	}
	lp, ld, err := tpFor(litegpu.Lite(), m)
	if err != nil {
		return nil, err
	}
	big := litegpu.ServeConfig{
		GPU: litegpu.H100(), Model: m, Opts: litegpu.DefaultOptions(),
		Scheduler:        litegpu.StaticDisaggregated,
		PrefillInstances: 1, PrefillGPUs: hp,
		DecodeInstances: 1, DecodeGPUs: hd,
		MaxPrefillBatch: 8, MaxDecodeBatch: 64,
	}
	lite := litegpu.ServeConfig{
		GPU: litegpu.Lite(), Model: m, Opts: litegpu.DefaultOptions(),
		Scheduler: litegpu.ContinuousBatching,
		Instances: 2, InstanceGPUs: max(lp, ld),
		MaxPrefillBatch: 8, MaxDecodeBatch: 64,
	}
	cc := litegpu.ServeClusterConfig{
		Pools:  []litegpu.ServePool{{Name: "H100", Config: big}, {Name: "Lite", Config: lite}},
		Router: litegpu.JoinShortestQueue,
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	gen := litegpu.Workload{
		Rate:         2000,
		PromptMedian: 32, PromptP99: 64,
		OutputMedian: 2, OutputP99: 4,
		MaxTokens: 128,
		Seed:      seed,
	}
	start := time.Now()
	if _, err := gen.Stream(horizon); err != nil {
		return nil, err
	}
	generateS := time.Since(start).Seconds()
	run := &serveRun{
		cc:      cc,
		stream:  func() (litegpu.RequestSource, error) { return gen.Stream(horizon) },
		horizon: horizon + 60,
		seed:    seed,
		fired: func(cm litegpu.ServeClusterMetrics, _ *litegpu.Observer) []mechanism {
			return []mechanism{
				{"arrivals at the stream's rate", float64(cm.Total.Arrived) >= 0.9*gen.Rate*float64(horizon)},
				{"H100 pool served", cm.Pools[0].Metrics.Completed > 0},
				{"Lite pool served", cm.Pools[1].Metrics.Completed > 0},
				{"deployment kept up", cm.Total.Completed >= cm.Total.Arrived*9/10},
			}
		},
	}
	return &instance{
		config:    map[string]any{"cluster": cc, "workload": gen, "stream_horizon_s": horizon, "sim_horizon_s": run.horizon},
		generateS: generateS,
		rep:       run.rep,
		drive:     driveParams{kvBlocks: defaultDriveBlocks, gpu: litegpu.H100(), model: m, prefill: hp, decode: hd},
	}, nil
}

// defaultDriveBlocks sizes the KV drive on workloads that run without a
// KV budget: the closed-loop workloads' budget.
const defaultDriveBlocks = 600

// setupClosedLoop builds the closed-loop overload scenario: two tenant
// classes under a flash crowd, closed-loop clients that time out and
// retry, adaptive admission, a scarce KV budget with recompute
// preemption, and KV handoffs over a pluggable-optics Clos with one GPU
// per node. observed attaches the observer to every rep.
func setupClosedLoop(seed uint64, scale float64, observed bool) (*instance, error) {
	horizon := litegpu.Seconds(1200 * scale)
	m, err := model("Llama3-8B")
	if err != nil {
		return nil, err
	}
	cfg := litegpu.ServeConfig{
		GPU: litegpu.H100(), Model: m, Opts: litegpu.DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		KV: litegpu.ServeKVConfig{Policy: litegpu.KVRecompute, Blocks: defaultDriveBlocks},
		Client: litegpu.ServeClientConfig{
			Default: litegpu.ClientBehavior{Timeout: 10, Retries: 2, BackoffBase: 1, Jitter: 0.5},
			Seed:    mathx.DeriveSeed(seed, 1),
		},
		Admission: litegpu.ServeAdmissionConfig{Policy: litegpu.AdmitAdaptive, QueueLimit: 32, Levels: 2},
		Network:   litegpu.ServeNetworkConfig{Fabric: litegpu.FabricClos, Link: litegpu.LinkPluggable, NodeGPUs: 1},
	}
	cc := litegpu.ServeClusterConfig{Pools: []litegpu.ServePool{{Name: "H100", Config: cfg}}}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	work := litegpu.MultiWorkload{
		Classes: []litegpu.TenantClass{
			{Name: "paid", Gen: litegpu.ConversationWorkload(6, 0), Priority: 1},
			{Name: "free", Gen: litegpu.ConversationWorkload(18, 0), Priority: 0},
		},
		Envelope: litegpu.WorkloadEnvelope{Flash: []litegpu.FlashCrowd{{At: 30, Duration: 60, Factor: 2}}},
		Seed:     seed,
	}
	start := time.Now()
	reqs, err := work.Generate(horizon)
	if err != nil {
		return nil, err
	}
	generateS := time.Since(start).Seconds()
	simHorizon := horizon + 120
	newRun := func(observe bool) *serveRun {
		return &serveRun{
			cc: cc, reqs: reqs, horizon: simHorizon, seed: seed, observe: observe,
			fired: func(cm litegpu.ServeClusterMetrics, rec *litegpu.Observer) []mechanism {
				t := cm.Total
				ms := []mechanism{
					{"admission shed", t.Shed > 0},
					{"clients retried", t.ClientRetries > 0},
					{"kv preempted", t.KVPreemptions > 0},
					{"kv handoffs crossed the fabric", t.NetTransfers > 0},
				}
				if rec != nil {
					held, seen := rec.Sampled()
					ms = append(ms,
						mechanism{"timelines sampled", held > 0 && seen >= held},
						mechanism{"probe rows recorded", len(rec.Probes()) == wantProbeRows(len(cc.Pools), simHorizon)})
				}
				return ms
			},
		}
	}
	drive := driveParams{kvBlocks: cfg.KV.Blocks, gpu: cfg.GPU, model: m, prefill: cfg.PrefillGPUs, decode: cfg.DecodeGPUs}
	config := map[string]any{"cluster": cc, "workload": work, "requests": len(reqs),
		"trace_horizon_s": horizon, "sim_horizon_s": simHorizon, "observer": observed}
	inst := &instance{config: config, generateS: generateS, rep: newRun(observed).rep, drive: drive}
	if observed {
		inst.control = newRun(false).rep
	}
	return inst, nil
}

// setupPlan builds the availability-aware capacity question: Llama3-70B
// on Lite-GPUs, every scheduler × the four default fabrics, failures on,
// a five-nines availability target, two planner workers. At 6 req/s the
// search walks the same ladder on every seed tried (68 rungs to a 13-GPU
// plan, seeds 1 to 14), so a run's cost does not hinge on which side of
// a sizing boundary its seed lands. The trace the planner will generate
// is generated here too, so each rung's arrivals can be checked against
// it.
func setupPlan(seed uint64, scale float64) (*instance, error) {
	horizon := litegpu.Seconds(120 * scale)
	m, err := model("Llama3-70B")
	if err != nil {
		return nil, err
	}
	pp, pd, err := tpFor(litegpu.Lite(), m)
	if err != nil {
		return nil, err
	}
	req := litegpu.CapacityRequest{
		GPU:        litegpu.Lite(),
		Model:      m,
		Opts:       litegpu.DefaultOptions(),
		Workload:   litegpu.CodingWorkload(6, seed),
		Horizon:    horizon,
		Drain:      60,
		Schedulers: litegpu.SchedulerPolicies(),
		Fabrics:    litegpu.DefaultFabricCandidates(),
		Failures:   litegpu.ServeFailureConfig{Enabled: true, Seed: mathx.DeriveSeed(seed, 2)},
		Workers:    2,
	}
	slo := litegpu.CapacitySLO{MinAvailability: 0.99999}
	start := time.Now()
	reqs, err := req.Workload.Generate(req.Horizon)
	if err != nil {
		return nil, err
	}
	generateS := time.Since(start).Seconds()
	rep := func(traced bool) (outcome, *layerCounts, error) {
		r := req
		r.Trace = &litegpu.PlanTrace{}
		start := time.Now()
		plan, err := litegpu.PlanCapacityRequest(r, slo)
		runS := time.Since(start).Seconds()
		if err != nil {
			return outcome{}, nil, err
		}
		o := outcome{Digest: digest(plan, r.Trace)}
		rungs, winners := 0, 0
		arrivalsMatch := true
		for _, c := range r.Trace.Candidates {
			for _, g := range c.Rungs {
				o.Arrived += g.Arrived
				o.Completed += g.Completed
				arrivalsMatch = arrivalsMatch && g.Arrived == len(reqs)
				rungs++
			}
			if c.Winner {
				winners++
			}
		}
		o.Fired = []mechanism{
			{"feasible plan", plan.TotalGPUs > 0 && plan.Availability >= slo.MinAvailability},
			{"one winner", winners == 1},
			{"12 candidates searched", len(r.Trace.Candidates) == 12},
			{"every rung saw the whole trace", arrivalsMatch},
		}
		if !traced {
			return o, nil, nil
		}
		// The planner generates its trace once per call, inside it; time
		// that step here, outside the call, as the trace layer's share.
		start = time.Now()
		again, err := req.Workload.Generate(req.Horizon)
		if err != nil {
			return outcome{}, nil, err
		}
		lc := &layerCounts{
			NextCalls: len(again), NextS: time.Since(start).Seconds(), RunS: runS,
			Candidates: len(r.Trace.Candidates), Rungs: rungs,
		}
		fillMetricCounts(lc, plan.Metrics)
		start = time.Now()
		if err := r.Trace.WriteJSON(io.Discard); err != nil {
			return outcome{}, nil, fmt.Errorf("export plan trace: %w", err)
		}
		if err := r.Trace.Render(io.Discard); err != nil {
			return outcome{}, nil, fmt.Errorf("render plan trace: %w", err)
		}
		lc.ExportS = time.Since(start).Seconds()
		return o, lc, nil
	}
	return &instance{
		config:    map[string]any{"request": req, "slo": slo, "requests": len(reqs)},
		generateS: generateS,
		rep:       rep,
		drive:     driveParams{kvBlocks: defaultDriveBlocks, gpu: req.GPU, model: m, prefill: pp, decode: pd},
	}, nil
}
