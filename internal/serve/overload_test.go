package serve

import (
	"fmt"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// lite4Of rebuilds a config on the paper's Lite-GPU at equal silicon:
// four Lite dies stand in for each H100 per instance.
func lite4Of(cfg Config) Config {
	cfg.GPU = hw.Lite()
	cfg.PrefillGPUs = 4
	cfg.DecodeGPUs = 4
	return cfg
}

// overloadTenants is the acceptance trace: a paid tier (priority 1) at
// a quarter of the total rate, a free tier at the rest, and a flash
// crowd doubling arrivals mid-run.
func overloadTenants(t *testing.T, paid, free float64, span units.Seconds) []trace.Request {
	t.Helper()
	mg := trace.MultiGenerator{
		Classes: []trace.TenantClass{
			{Name: "paid", Gen: trace.ConversationWorkload(paid, 0), Priority: 1},
			{Name: "free", Gen: trace.ConversationWorkload(free, 0), Priority: 0},
		},
		Envelope: trace.Envelope{Flash: []trace.FlashCrowd{{At: 30, Duration: 60, Factor: 2}}},
		Seed:     5,
	}
	reqs, err := mg.Generate(span)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestOverloadZeroValueEquivalence pins the contract that every PR-9
// knob is inert at its zero value: a config whose client loop,
// admission gate, autoscaler, and straggler model are all off — even
// with their inactive parameters set to junk — must produce metrics
// byte-identical to the plain config, under all three schedulers.
func TestOverloadZeroValueEquivalence(t *testing.T) {
	reqs := codingTrace(t, 30, 17, 60)
	for _, pol := range SchedulerPolicies() {
		base := smallConfig()
		base.Scheduler = pol
		if pol == ChunkedPrefill {
			base.PrefillChunk = 256
		}
		want, err := Run(base, reqs, 200)
		if err != nil {
			t.Fatal(err)
		}
		wantHex := fmt.Sprintf("%x", want)

		variants := map[string]func(*Config){
			"client-seed-only": func(c *Config) {
				c.Client = ClientConfig{Seed: 42}
			},
			"admit-all-with-params": func(c *Config) {
				c.Admission = AdmissionConfig{Policy: AdmitAll, QueueLimit: 8, MinPriority: 5, Levels: 3}
			},
			"autoscale-disabled-with-params": func(c *Config) {
				c.Autoscale = AutoscaleConfig{Interval: 1, HighWater: 2, LowWater: 1, Step: 3, WarmUp: 100}
			},
			"straggler-zero-cv": func(c *Config) {
				c.Straggler = StragglerConfig{Seed: 7}
			},
		}
		for name, mut := range variants {
			cfg := base
			mut(&cfg)
			got, err := Run(cfg, reqs, 200)
			if err != nil {
				t.Fatalf("%v/%s: %v", pol, name, err)
			}
			if fmt.Sprintf("%x", got) != wantHex {
				t.Errorf("%v/%s: inert knob changed metrics", pol, name)
			}
		}
	}
}

// TestClosedLoopLeaksNothing is the leak property test: when every
// request has resolved — served, timed out, abandoned, or shed — the
// pool must hold no client tracks, no tombstones, no KV blocks, no
// scheduler-outstanding work, and no in-flight handoffs. Cancellation
// reclaims everything, under every scheduler, with and without
// failures.
func TestClosedLoopLeaksNothing(t *testing.T) {
	reqs := overloadTenants(t, 15, 45, 60)
	for _, pol := range SchedulerPolicies() {
		for _, withFailures := range []bool{false, true} {
			name := fmt.Sprintf("%v/failures=%v", pol, withFailures)
			cfg := smallConfig()
			cfg.Scheduler = pol
			if pol == ChunkedPrefill {
				cfg.PrefillChunk = 256
			}
			cfg.Client = ClientConfig{
				Default: ClientBehavior{Timeout: 5, Retries: 2, BackoffBase: 1, Jitter: 0.5},
				Seed:    11,
			}
			cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 16, Levels: 2}
			cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 500}
			cc := clusterOf(cfg)
			if withFailures {
				cc.Failures = acceleratedFailures(0)
			}
			// A long horizon so every deadline, backoff retry, and repair
			// resolves before the run ends.
			s, err := newClusterSim(cc, 400)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m := s.run(reqs)
			if m.Total.Arrived == 0 {
				t.Fatalf("%s: empty run", name)
			}
			for _, p := range s.pools {
				if n := len(p.tracks); n != 0 {
					t.Errorf("%s: %d live client tracks leaked", name, n)
				}
				if n := len(p.cancelled); n != 0 {
					t.Errorf("%s: %d cancellation tombstones leaked", name, n)
				}
				for i := range p.trackArena {
					if p.trackArena[i].open {
						t.Errorf("%s: arena track %d still open", name, p.trackArena[i].id)
						break
					}
				}
				if p.kvInUse != 0 {
					t.Errorf("%s: %d KV blocks leaked", name, p.kvInUse)
				}
				if n := p.sched.outstanding(); n != 0 {
					t.Errorf("%s: scheduler reports %d outstanding", name, n)
				}
				if n := len(p.liveXfers); n != 0 {
					t.Errorf("%s: %d KV handoffs still in flight", name, n)
				}
			}
		}
	}
}

// TestGracefulDegradationUnderFlashCrowd is the acceptance test: a
// flash crowd at roughly twice the sustainable rate, on both the
// big-GPU and equal-silicon Lite deployments. Three runs on identical
// hardware and trace:
//
//   - open: clients with the same deadlines but no feedback
//     (ObserveOnly) — the open-loop infinite-queueing baseline;
//   - closed: deadlines, abandonment, and capped-exponential backoff,
//     but no admission control — the queue still collapses, just with
//     retries;
//   - shed: closed loop plus adaptive admission — the free tier sheds
//     first and the paid tier keeps its TTFT SLO.
//
// The claims under test: closed-loop abandonment+backoff beats
// open-loop queueing on deadline-qualified goodput; adaptive shedding
// keeps paid-tier TTFT attainment high while the ungated run
// collapses; and the ungated tail (TTFT p99) grows without bound while
// the gated one stays near the SLO.
func TestGracefulDegradationUnderFlashCrowd(t *testing.T) {
	clients := ClientConfig{
		Classes: []ClientBehavior{
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5, TTFTSLO: 2},
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5},
		},
		Seed: 7,
	}
	reqs := overloadTenants(t, 20, 60, 120)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"h100", smallConfig()},
		{"lite-equal-silicon", lite4Of(smallConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.cfg
			base.KV = kv.Config{Policy: kv.Recompute, Blocks: 2000}

			openCfg := base
			openCfg.Client = clients
			openCfg.Client.ObserveOnly = true
			open, err := Run(openCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			closedCfg := base
			closedCfg.Client = clients
			closed, err := Run(closedCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			shedCfg := closedCfg
			shedCfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 48, Levels: 4}
			shed, err := Run(shedCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			// Closed-loop clients waste capacity on retried prefills, but
			// abandonment stops the simulator burning decode on requests
			// nobody is waiting for: deadline-qualified goodput must be
			// strictly higher than open-loop infinite queueing.
			if closed.UsefulGoodput <= open.UsefulGoodput {
				t.Errorf("closed-loop useful goodput %.1f not above open-loop %.1f",
					closed.UsefulGoodput, open.UsefulGoodput)
			}
			if shed.UsefulGoodput <= closed.UsefulGoodput {
				t.Errorf("shedding useful goodput %.1f not above closed-loop %.1f",
					shed.UsefulGoodput, closed.UsefulGoodput)
			}

			// The paid tier survives the crowd only behind the gate.
			paidShed := shed.Classes[0].TTFTAttainment
			paidClosed := closed.Classes[0].TTFTAttainment
			if paidShed < 0.7 {
				t.Errorf("paid-tier TTFT attainment %.3f under shedding, want >= 0.7", paidShed)
			}
			if paidClosed > 0.3 {
				t.Errorf("paid-tier TTFT attainment %.3f without admission control, want collapse (<= 0.3)", paidClosed)
			}
			if paidShed <= paidClosed {
				t.Errorf("shedding attainment %.3f not above ungated %.3f", paidShed, paidClosed)
			}

			// Ungated, the TTFT tail grows to the client timeout; gated it
			// stays near the SLO.
			if closed.TTFT.P99 < 5 {
				t.Errorf("ungated TTFT p99 %.2fs, want unbounded growth (>= 5s)", closed.TTFT.P99)
			}
			if shed.TTFT.P99 > 2 {
				t.Errorf("gated TTFT p99 %.2fs, want within SLO reach (<= 2s)", shed.TTFT.P99)
			}
			t.Logf("%s: useful goodput open=%.0f closed=%.0f shed=%.0f; paid attainment closed=%.3f shed=%.3f; ttft p99 closed=%.1fs shed=%.1fs",
				tc.name, open.UsefulGoodput, closed.UsefulGoodput, shed.UsefulGoodput,
				paidClosed, paidShed, closed.TTFT.P99, shed.TTFT.P99)
		})
	}
}

// TestAutoscalerShardDeterminism runs an elastic, failure-injected,
// closed-loop cluster at shard counts 1, 2, and 4 and requires
// byte-identical metrics: the autoscaler's control loop, cold-start
// warm-ups (including instances that die mid-warm-up under the
// accelerated failure clock), and drain-first scale-downs are all
// event-driven state inside each pool, so sharding must not observe
// them.
func TestAutoscalerShardDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.DecodeInstances = 4
	cfg.MaxDecodeBatch = 16
	cfg.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 20, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    13,
	}
	cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 32, Levels: 2}
	cfg.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 20,
	}
	cc := clusterOf(cfg, cfg, cfg, cfg)
	cc.Router = JoinShortestQueue
	cc.Failures = acceleratedFailures(0)
	reqs := overloadTenants(t, 25, 75, 90)

	run := func(shards int) string {
		c := cc
		c.Shards = shards
		cm, err := RunCluster(c, reqs, 240)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards <= 1 {
			if cm.Total.ScaleUps == 0 {
				t.Fatal("scenario never scaled up — not exercising the autoscaler")
			}
			if cm.Total.FailureEvents == 0 {
				t.Fatal("scenario saw no failures — not exercising warm-up/failure interaction")
			}
		}
		return hexCluster(cm)
	}
	seq := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != seq {
			t.Errorf("shards=%d diverges from sequential run", shards)
		}
	}
}

// TestWarmupAbortsWhenInstanceDies pins the cold-start/failure
// interaction directly: an instance that dies while warming must stay
// parked when its warm-up completes, rather than unparking dead
// capacity.
func TestWarmupAbortsWhenInstanceDies(t *testing.T) {
	cfg := smallConfig()
	cfg.DecodeInstances = 2
	cfg.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 2, LowWater: 1, MinInstances: 1, WarmUp: 10,
	}
	s, err := newClusterSim(clusterOf(cfg), 100)
	if err != nil {
		t.Fatal(err)
	}
	p := s.pools[0]
	parked := -1
	for id := p.scaleLo; id < p.scaleHi; id++ {
		if p.sched.state(id).parked {
			parked = id
			break
		}
	}
	if parked < 0 {
		t.Fatal("no instance starts parked above the floor")
	}
	if !s.scaleUpOne(p, 0) {
		t.Fatal("scale-up found no target")
	}
	st := p.sched.state(parked)
	if !st.warming {
		t.Fatal("scale-up did not start a warm-up")
	}
	st.up = false // the instance fails mid-warm-up
	s.onWarm(float64(cfg.Autoscale.WarmUp), packArg(0, parked))
	if st.warming {
		t.Error("warming flag not cleared")
	}
	if !st.parked {
		t.Error("dead instance unparked at warm-up completion")
	}
	// When it was alive, the same warm-up completes normally.
	st.up = true
	st.warming = true
	s.onWarm(2*float64(cfg.Autoscale.WarmUp), packArg(0, parked))
	if st.parked {
		t.Error("live instance failed to unpark at warm-up completion")
	}
}

// TestOverloadSnapshotForkInvariance extends the snapshot contract to
// the closed client loop: forking a failure run at its first failure
// with client deadlines armed, backoff retries pending, and adaptive
// admission shedding must be byte-identical to simulating the whole
// run from t=0. The calendar's client-deadline and retry queues, the
// track arena, and the jitter stream all have to survive the fork.
func TestOverloadSnapshotForkInvariance(t *testing.T) {
	cfg := smallConfig()
	cfg.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 10, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    17,
	}
	cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 24, Levels: 2}
	reqs := overloadTenants(t, 15, 45, 90)
	f := acceleratedFailures(0)
	m0, fork, err := runForkable(cfg, f, reqs, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fork.sim.snap == nil {
		t.Fatal("accelerated failures fired no failure; fork test is vacuous")
	}
	if m0.ClientTimeouts == 0 || m0.ClientRetries == 0 || m0.Shed == 0 {
		t.Fatalf("fork scenario never exercised the client loop: timeouts=%d retries=%d shed=%d",
			m0.ClientTimeouts, m0.ClientRetries, m0.Shed)
	}
	for spares := 0; spares <= 2; spares++ {
		fs := f
		fs.Spares = spares
		want, err := RunWithFailures(cfg, fs, reqs, 200)
		if err != nil {
			t.Fatal(err)
		}
		got := fork.runWithSpares(spares)
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Errorf("spares=%d: fork resume diverges from full run\ngot:  %x\nwant: %x", spares, got, want)
		}
	}
}
