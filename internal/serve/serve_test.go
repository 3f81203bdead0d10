package serve

import (
	"math"
	"reflect"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// smallConfig returns a fast-to-simulate deployment: Llama3-8B on single
// H100s for both pools.
func smallConfig() Config {
	return Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_8B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 1,
		PrefillGPUs:      1,
		DecodeInstances:  1,
		DecodeGPUs:       1,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
}

// runOne simulates a single pool, named after its GPU, over a
// materialized trace with no failure injection.
func runOne(cfg Config, reqs []trace.Request, horizon units.Seconds) (Metrics, error) {
	return runOneFailures(cfg, FailureConfig{}, reqs, horizon)
}

// runOneFailures is runOne under the given failure config.
func runOneFailures(cfg Config, f FailureConfig, reqs []trace.Request, horizon units.Seconds) (Metrics, error) {
	cm, err := RunCluster(ClusterConfig{
		Pools:    []Pool{{Name: cfg.GPU.Name, Config: cfg}},
		Failures: f,
	}, FromSlice(reqs), horizon)
	if err != nil {
		return Metrics{}, err
	}
	return cm.Pools[0].Metrics, nil
}

func oneRequest(prompt, output int) []trace.Request {
	return []trace.Request{{ID: 0, Arrival: 0, PromptTokens: prompt, OutputTokens: output}}
}

func TestValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.GPU = hw.GPU{} },
		func(c *Config) { c.Model = model.Transformer{} },
		func(c *Config) { c.PrefillInstances = 0 },
		func(c *Config) { c.DecodeInstances = 0 },
		func(c *Config) { c.PrefillGPUs = 0 },
		func(c *Config) { c.DecodeGPUs = 0 },
		func(c *Config) { c.MaxPrefillBatch = 0 },
		func(c *Config) { c.MaxDecodeBatch = 0 },
	}
	for i, mutate := range bad {
		c := smallConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestRunRejectsOversizedModel(t *testing.T) {
	c := smallConfig()
	c.Model = model.Llama3_405B() // cannot fit 1×H100
	if _, err := runOne(c, oneRequest(100, 10), 10); err == nil {
		t.Error("oversized model accepted")
	}
}

func TestSingleRequestTTFTMatchesAnalyticalModel(t *testing.T) {
	// One idle engine, one request: simulated TTFT must equal the
	// analytical prefill latency at that prompt length (bucketed to 64).
	cfg := smallConfig()
	prompt := 1536 // exact multiple of the 64-token bucket
	mets, err := runOne(cfg, oneRequest(prompt, 5), 600)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Completed != 1 {
		t.Fatalf("completed = %d, want 1", mets.Completed)
	}
	opts := cfg.Opts
	opts.PromptLen = prompt
	want, err := inference.Run(cfg.GPU, cfg.Model, inference.Prefill, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mets.TTFT.Mean-float64(want.Latency)) / float64(want.Latency); rel > 0.01 {
		t.Errorf("simulated TTFT %v vs analytical %v", mets.TTFT.Mean, want.Latency)
	}
}

func TestSingleRequestTBTMatchesAnalyticalModel(t *testing.T) {
	cfg := smallConfig()
	mets, err := runOne(cfg, oneRequest(1500, 50), 600)
	if err != nil {
		t.Fatal(err)
	}
	// An uncontended request emits one token per consecutive step, so
	// its 49 inter-token intervals each span exactly one analytical
	// decode-step latency.
	want, err := inference.Run(cfg.GPU, cfg.Model, inference.Decode, 1, 1, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mets.TBT.Mean-float64(want.Latency)) / float64(want.Latency); rel > 0.01 {
		t.Errorf("simulated TBT %v vs analytical %v", mets.TBT.Mean, want.Latency)
	}
}

func TestSingleTokenOutputTBTGuard(t *testing.T) {
	// One output token has zero inter-token intervals; the TBT sample
	// must fall back to the lone step duration, not divide by zero.
	cfg := smallConfig()
	mets, err := runOne(cfg, oneRequest(1500, 1), 600)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Completed != 1 {
		t.Fatalf("completed = %d, want 1", mets.Completed)
	}
	step, err := inference.Run(cfg.GPU, cfg.Model, inference.Decode, 1, 1, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(mets.TBT.Mean, 0) || math.IsNaN(mets.TBT.Mean) {
		t.Fatalf("TBT mean = %v for single-token output", mets.TBT.Mean)
	}
	if rel := math.Abs(mets.TBT.Mean-float64(step.Latency)) / float64(step.Latency); rel > 0.01 {
		t.Errorf("single-token TBT %v vs step latency %v", mets.TBT.Mean, step.Latency)
	}
}

func TestOversizedPromptIsDroppedNotStarved(t *testing.T) {
	// A prompt whose KV cache alone exceeds GPU capacity can never fit a
	// prefill pass: it must be counted in Dropped, and requests queued
	// behind it must still be served.
	cfg := smallConfig()
	reqs := []trace.Request{
		{ID: 0, Arrival: 0, PromptTokens: 5_000_000, OutputTokens: 5},
		{ID: 1, Arrival: 0.5, PromptTokens: 800, OutputTokens: 5},
	}
	mets, err := runOne(cfg, reqs, 600)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", mets.Dropped)
	}
	if mets.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (the feasible request behind the oversized one)", mets.Completed)
	}
	if mets.Arrived != 2 {
		t.Errorf("Arrived = %d, want 2", mets.Arrived)
	}
}

func TestThroughputUnderLoad(t *testing.T) {
	// A steady stream at moderate rate: everything completes, SLOs hold.
	cfg := smallConfig()
	gen := trace.CodingWorkload(0.5, 42)
	reqs, err := gen.Generate(300)
	if err != nil {
		t.Fatal(err)
	}
	mets, err := runOne(cfg, reqs, 600)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if mets.Completed < mets.Arrived*8/10 {
		t.Errorf("completed %d of %d; expected ≥80%%", mets.Completed, mets.Arrived)
	}
	if mets.TTFTAttainment < 0.95 {
		t.Errorf("TTFT attainment = %v at low load, want ≥0.95", mets.TTFTAttainment)
	}
	if mets.TokensGenerated == 0 {
		t.Error("no tokens generated")
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := smallConfig()
	gen := trace.CodingWorkload(1.0, 7)
	reqs, err := gen.Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	mets, err := runOne(cfg, reqs, 240)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]float64{
		"prefill": mets.PrefillUtilization,
		"decode":  mets.DecodeUtilization,
	} {
		if u < 0 || u > 1.0001 {
			t.Errorf("%s utilization = %v out of [0,1]", name, u)
		}
	}
}

func TestOverloadDegradesTTFT(t *testing.T) {
	cfg := smallConfig()
	lowGen := trace.CodingWorkload(0.2, 5)
	low, err := lowGen.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	highGen := trace.CodingWorkload(8.0, 5)
	high, err := highGen.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	mLow, err := runOne(cfg, low, 400)
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := runOne(cfg, high, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mHigh.TTFT.P90 <= mLow.TTFT.P90 {
		t.Errorf("overload TTFT p90 (%v) should exceed light-load (%v)",
			mHigh.TTFT.P90, mLow.TTFT.P90)
	}
}

func TestMoreDecodeInstancesHelpTBTQueueing(t *testing.T) {
	gen := trace.CodingWorkload(4.0, 13)
	reqs, err := gen.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	one := smallConfig()
	one.MaxDecodeBatch = 8 // force queueing pressure
	two := one
	two.DecodeInstances = 3
	mOne, err := runOne(one, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	mTwo, err := runOne(two, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mTwo.Completed < mOne.Completed {
		t.Errorf("more decode instances completed fewer requests: %d vs %d",
			mTwo.Completed, mOne.Completed)
	}
}

func TestLitePoolMatchesH100Pool(t *testing.T) {
	// The paper's substitution: one H100 decode instance vs four Lite
	// GPUs serving the same model — throughput should be comparable
	// (equal aggregate capability, modest collective overhead).
	gen := trace.CodingWorkload(1.0, 21)
	reqs, err := gen.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	h := smallConfig()
	l := h
	l.GPU = hw.Lite()
	l.PrefillGPUs = 4
	l.DecodeGPUs = 4
	mh, err := runOne(h, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := runOne(l, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Completed == 0 {
		t.Fatal("H100 run completed nothing")
	}
	ratio := float64(ml.Completed) / float64(mh.Completed)
	if ratio < 0.80 || ratio > 1.25 {
		t.Errorf("Lite/H100 completion ratio = %v, want ≈1", ratio)
	}
}

func TestNoRequests(t *testing.T) {
	mets, err := runOne(smallConfig(), nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Arrived != 0 || mets.Completed != 0 {
		t.Errorf("empty run produced %+v", mets)
	}
}

func TestHorizonBeforeFirstArrival(t *testing.T) {
	// Every request arrives after the horizon: the simulation must end
	// immediately with empty metrics rather than spin or count phantom
	// arrivals.
	reqs := []trace.Request{
		{ID: 0, Arrival: 100, PromptTokens: 500, OutputTokens: 5},
		{ID: 1, Arrival: 200, PromptTokens: 500, OutputTokens: 5},
	}
	mets, err := runOne(smallConfig(), reqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Arrived != 0 || mets.Completed != 0 || mets.Dropped != 0 || mets.TokensGenerated != 0 {
		t.Errorf("pre-arrival horizon produced activity: %+v", mets)
	}
	if mets.PrefillUtilization != 0 || mets.DecodeUtilization != 0 {
		t.Errorf("idle run reports utilization: %+v", mets)
	}
}

func TestDecodeCapClampedByKVCapacity(t *testing.T) {
	// Llama3-70B on one H100 leaves ~10 GB for KV, far below what a
	// 100k-request decode batch would need. A config with an absurd
	// MaxDecodeBatch must behave identically to one capped at the KV
	// limit, proving the clamp is what actually bounds occupancy.
	base := Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_70B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 1,
		PrefillGPUs:      1,
		DecodeInstances:  1,
		DecodeGPUs:       1,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   100000,
	}
	maxKV := inference.MaxFeasibleBatch(base.GPU, base.Model, inference.Decode, base.DecodeGPUs, base.Opts)
	if maxKV <= 0 || maxKV >= base.MaxDecodeBatch {
		t.Fatalf("test premise broken: maxKV = %d", maxKV)
	}
	clamped := base
	clamped.MaxDecodeBatch = maxKV

	gen := trace.CodingWorkload(2.0, 11)
	reqs, err := gen.Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	mAbsurd, err := runOne(base, reqs, 240)
	if err != nil {
		t.Fatal(err)
	}
	mClamped, err := runOne(clamped, reqs, 240)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mAbsurd, mClamped) {
		t.Errorf("KV clamp not effective: absurd cap %+v vs clamped %+v", mAbsurd, mClamped)
	}
	if mAbsurd.Completed == 0 {
		t.Error("clamped run served nothing")
	}
}

func TestHorizonCutsOffLateArrivals(t *testing.T) {
	reqs := []trace.Request{
		{ID: 0, Arrival: 1, PromptTokens: 100, OutputTokens: 5},
		{ID: 1, Arrival: units.Seconds(1e6), PromptTokens: 100, OutputTokens: 5},
	}
	mets, err := runOne(smallConfig(), reqs, 60)
	if err != nil {
		t.Fatal(err)
	}
	if mets.Arrived != 1 {
		t.Errorf("arrived = %d, want 1 (second request beyond horizon)", mets.Arrived)
	}
}
