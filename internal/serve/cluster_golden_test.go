package serve

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// clusterGoldenFile pins multi-pool behaviour: both routers over
// heterogeneous pools, failure injection (whose per-instance seeds and
// priority offsets are global across pools), all three schedulers side
// by side, an in-loop fabric coupling the pools, and a four-pool JSQ
// cluster with autoscaling, closed-loop clients and failures live. The
// full Metrics struct is rendered in %x, so a match is byte-identity.
// The corpus was captured with the all-pool dispatch pass that predates
// per-pool dispatch marking, so that optimization must reproduce these
// runs bit-for-bit.
const clusterGoldenFile = "testdata/cluster_goldens.txt"

// hexCluster renders a ClusterMetrics in full-precision hex-float form,
// one line per pool plus the aggregate, so "equal strings" means
// "equal bits".
func hexCluster(cm ClusterMetrics) string {
	var b strings.Builder
	for _, pm := range cm.Pools {
		fmt.Fprintf(&b, "pool %s: %x\n", pm.Name, pm.Metrics)
	}
	fmt.Fprintf(&b, "total: %x\n", cm.Total)
	return b.String()
}

// clusterScenario is one (cluster, materialized trace) pair of the
// cluster corpus. reverse feeds the trace back to front: RunCluster
// must sort it and reproduce the in-order run exactly.
type clusterScenario struct {
	name    string
	cluster ClusterConfig
	reqs    []trace.Request
	horizon units.Seconds
	reverse bool
}

func clusterScenarios(t *testing.T) []clusterScenario {
	t.Helper()
	small := smallConfig()
	lite4 := small
	lite4.GPU = hw.Lite()
	lite4.PrefillGPUs = 4
	lite4.DecodeGPUs = 4

	jsq := clusterOf(small, lite4)
	jsq.Router = JoinShortestQueue

	trio := clusterOf(small, lite4, small)
	trio.Failures = acceleratedFailures(1)
	trioJSQ := trio
	trioJSQ.Router = JoinShortestQueue

	// One pool per scheduler behind JSQ, with KV scarcity and failures:
	// a dispatch pass must serve each policy's engines independently.
	cont := small
	cont.Scheduler = ContinuousBatching
	cont.DecodeInstances = 2
	cont.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
	chunk := cont
	chunk.Scheduler = ChunkedPrefill
	chunk.PrefillChunk = 256
	mixed := clusterOf(small, cont, chunk)
	mixed.Router = JoinShortestQueue
	mixed.Failures = acceleratedFailures(0)

	// The same mix on a shared fabric: ingress and KV deliveries land in
	// one pool and ask for a dispatch pass the other pools share.
	fabric := clusterOf(small, cont, chunk)
	fabric.Router = JoinShortestQueue
	fabric.Network = pluggablePacket()

	// Four elastic, closed-loop pools with admission control under a
	// flash crowd and accelerated failures, including instances that die
	// mid warm-up.
	elastic := smallConfig()
	elastic.DecodeInstances = 4
	elastic.MaxDecodeBatch = 16
	elastic.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 20, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    13,
	}
	elastic.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 32, Levels: 2}
	elastic.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 20,
	}
	quadJSQ := clusterOf(elastic, elastic, elastic, elastic)
	quadJSQ.Router = JoinShortestQueue
	quadJSQ.Failures = acceleratedFailures(0)

	return []clusterScenario{
		{name: "rr-hetero", cluster: clusterOf(small, lite4), reqs: codingTrace(t, 2.0, 17, 300), horizon: 500},
		{name: "jsq-hetero", cluster: jsq, reqs: codingTrace(t, 2.0, 17, 300), horizon: 500},
		{name: "rr-quad", cluster: clusterOf(small, lite4, small, lite4), reqs: codingTrace(t, 3.0, 23, 300), horizon: 500},
		{name: "rr-failures", cluster: trio, reqs: codingTrace(t, 2.0, 31, 300), horizon: 500},
		{name: "jsq-failures", cluster: trioJSQ, reqs: codingTrace(t, 2.0, 31, 300), horizon: 500},
		{name: "jsq-mixed-schedulers-failures", cluster: mixed, reqs: codingTrace(t, 3.0, 37, 200), horizon: 400},
		{name: "jsq-mixed-schedulers-fabric", cluster: fabric, reqs: codingTrace(t, 3.0, 37, 200), horizon: 400},
		{name: "jsq-quad-autoscale-clients-failures", cluster: quadJSQ, reqs: overloadTenants(t, 25, 75, 90), horizon: 240},
		{name: "rr-trio-reversed", cluster: clusterOf(small, small, small), reqs: codingTrace(t, 2.0, 41, 200), horizon: 400, reverse: true},
	}
}

// exercised reports a scenario whose run never reached the mechanism
// it is there to pin: no failure fired, no pool scaled up, or no
// transfer crossed the fabric.
func (sc clusterScenario) exercised(cm ClusterMetrics) error {
	cc := sc.cluster
	if cc.Failures.Enabled && cm.Total.FailureEvents == 0 {
		return fmt.Errorf("failure injection on but no failure fired")
	}
	if cc.Pools[0].Config.Autoscale.Enabled && cm.Total.ScaleUps == 0 {
		return fmt.Errorf("autoscaler on but no pool scaled up")
	}
	if cc.resolvedNetwork().Enabled() && cm.Total.NetTransfers == 0 {
		return fmt.Errorf("fabric on but no transfer crossed it")
	}
	return nil
}

// TestClusterGoldens pins multi-pool runs byte-for-byte, and checks
// that a back-to-front trace gives exactly the in-order run. Regenerate
// (only when knowingly changing simulator semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestClusterGoldens(t *testing.T) {
	var b strings.Builder
	for _, sc := range clusterScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			reqs := sc.reqs
			if sc.reverse {
				reqs = slices.Clone(sc.reqs)
				slices.Reverse(reqs)
			}
			cm, err := RunCluster(sc.cluster, FromSlice(reqs), sc.horizon)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.exercised(cm); err != nil {
				t.Error(err)
			}
			got := hexCluster(cm)
			if sc.reverse {
				sorted, err := RunCluster(sc.cluster, FromSlice(sc.reqs), sc.horizon)
				if err != nil {
					t.Fatal(err)
				}
				if want := hexCluster(sorted); got != want {
					t.Errorf("unsorted input diverges from the in-order run:\ngot:\n%s\nwant:\n%s", got, want)
				}
			}
			fmt.Fprintf(&b, "== %s\n%s", sc.name, got)
		})
	}
	compareGoldens(t, clusterGoldenFile, b.String())
}
