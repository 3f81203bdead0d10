package litegpu

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"litegpu/internal/experiments"
)

// gridGoldenFile pins the three design-space enumerators — Sweep, the
// capacity planner's candidate crossing and the experiments serving
// grid — to the exact cells, trace seeds and failure seeds they
// produce. Every float is rendered with %x, so a match is byte
// identity. Regenerate (only when knowingly changing semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test . -run TestGridGoldens
const gridGoldenFile = "testdata/grid_goldens.txt"

// gridSweepSpec crosses every Sweep axis at two values, including an
// accelerated failure mode, on short horizons.
func gridSweepSpec() SweepSpec {
	m8, _ := ModelByName("Llama3-8B")
	m70, _ := ModelByName("Llama3-70B")
	return SweepSpec{
		GPUs:      []GPU{H100(), Lite()},
		Models:    []Transformer{m8, m70},
		Workloads: []SweepWorkload{{Name: "coding", Make: CodingWorkload}, {Name: "agent", Make: AgentWorkload}},
		Rates:     []float64{1, 6},
		Schedulers: []SchedulerPolicy{
			StaticDisaggregated, ChunkedPrefill,
		},
		FailureModes: []SweepFailureMode{
			{Name: "none"},
			{Name: "afr", Failures: ServeFailureConfig{Enabled: true, Spares: 1, TimeScale: 1e7}},
		},
		Fabrics:    []ServeNetworkConfig{{}, {Fabric: FabricClos, Link: LinkPluggable}},
		KVPolicies: []ServeKVConfig{{}, {Policy: KVRecompute, Blocks: 600}},
		Admissions: []ServeAdmissionConfig{{}, {Policy: AdmitAdaptive, QueueLimit: 12, Levels: 2}},
		Client: ServeClientConfig{
			Default: ClientBehavior{Timeout: 10, Retries: 1, Jitter: 0.5},
			Seed:    3,
		},
		Horizon: 30,
		Drain:   30,
		Seed:    11,
		Workers: 2,
	}
}

// gridPlanRequest is a failure-aware plan over a candidate set that
// crosses all four planner axes.
func gridPlanRequest() CapacityRequest {
	m8, _ := ModelByName("Llama3-8B")
	return CapacityRequest{
		GPU:        Lite(),
		Model:      m8,
		Opts:       DefaultOptions(),
		Workload:   CodingWorkload(8, 5),
		Horizon:    40,
		Drain:      30,
		Schedulers: []SchedulerPolicy{StaticDisaggregated, ContinuousBatching},
		Fabrics:    []ServeNetworkConfig{{}, {Fabric: FabricClos, Link: LinkPluggable}},
		KVPolicies: []ServeKVConfig{{}, {Policy: KVRecompute, Blocks: 3000}},
		Admissions: []ServeAdmissionConfig{{}, {Policy: AdmitPriority, QueueLimit: 16, MinPriority: 1}},
		Failures:   ServeFailureConfig{Enabled: true, TimeScale: 2e4, Seed: 9},
		Workers:    2,
		Trace:      &PlanTrace{},
	}
}

func gridReport(t *testing.T) string {
	t.Helper()
	var b strings.Builder

	cells, err := Sweep(context.Background(), gridSweepSpec())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	fmt.Fprintf(&b, "== sweep (%d cells)\n", len(cells))
	for i, c := range cells {
		fmt.Fprintf(&b, "%d %s/%s/%s@%v %s %s %s %s %s err=%q\n", i, c.GPU, c.Model, c.Workload, c.Rate,
			c.Scheduler, c.Failure, c.Fabric, c.KV, c.Admission, c.Err)
		fmt.Fprintf(&b, "  shape %d×%d+%d×%d %x\n", c.Config.PrefillInstances, c.Config.PrefillGPUs,
			c.Config.DecodeInstances, c.Config.DecodeGPUs, c.Metrics)
	}

	req := gridPlanRequest()
	plan, err := PlanCapacityRequest(req, CapacitySLO{MinAvailability: 0.999})
	fmt.Fprintf(&b, "== plan err=%v\n", err)
	fmt.Fprintf(&b, "config %s %s %s %s(limit=%d) %d×%d+%d×%d inst=%d\n", plan.Config.Scheduler,
		plan.Config.Network, plan.Config.KV, plan.Config.Admission.Policy, plan.Config.Admission.QueueLimit,
		plan.Config.PrefillInstances, plan.Config.PrefillGPUs, plan.Config.DecodeInstances,
		plan.Config.DecodeGPUs, plan.Config.Instances)
	cost := plan.Cost
	fmt.Fprintf(&b, "gpus %d spares %d avail %x fabric %s\n", plan.TotalGPUs, plan.Spares, plan.Availability, plan.Fabric)
	fmt.Fprintf(&b, "cost %x %x %x %x %x %x %x\n", float64(cost.GPUCapex), float64(cost.FabricCapex),
		float64(cost.CoolingCapex), float64(cost.EnergyOpex), float64(cost.Total), cost.NetworkShare,
		float64(cost.CostPerMTokens))
	fmt.Fprintf(&b, "metrics %x\n", plan.Metrics)
	for i, c := range req.Trace.Candidates {
		fmt.Fprintf(&b, "cand %d %s|%s|%s|%s feasible=%v winner=%v %d+%d spares=%d gpus=%d avail=%x cost=%x reason=%q\n",
			i, c.Scheduler, c.Fabric, c.KV, c.Admission, c.Feasible, c.Winner, c.PrefillInstances,
			c.DecodeInstances, c.Spares, c.TotalGPUs, c.Availability, c.CostPerMTok, c.Reason)
		for _, r := range c.Rungs {
			fmt.Fprintf(&b, "  rung %d+%d refine=%v ttft=%x tbt=%x %d/%d ok=%v\n", r.Prefill, r.Decode,
				r.Refine, r.TTFTAttainment, r.TBTAttainment, r.Completed, r.Arrived, r.Feasible)
		}
	}

	grid, err := experiments.ServingGrid(7)
	if err != nil {
		t.Fatalf("serving grid: %v", err)
	}
	fmt.Fprintf(&b, "== serving grid (%d cells)\n", len(grid))
	for i, c := range grid {
		fmt.Fprintf(&b, "%d %s@%v %s %s %x\n", i, c.Label, c.Rate, c.Scheduler, c.Failure, c.Metrics)
	}
	return b.String()
}

// TestGridGoldens checks that the sweep grid, the planner's candidate
// set and trace, and the experiments serving grid reproduce their
// pinned corpus byte for byte: cell order, per-cell trace seeds and the
// index-derived failure seeds all show up in the rendered metrics.
func TestGridGoldens(t *testing.T) {
	got := gridReport(t)
	if os.Getenv("LITEGPU_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(gridGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gridGoldenFile)
	if err != nil {
		t.Fatalf("missing corpus (run with LITEGPU_UPDATE_GOLDENS=1 to capture): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("diverged from %s at line %d:\n got: %s\nwant: %s",
				gridGoldenFile, i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("diverged from %s (length %d vs %d)", gridGoldenFile, len(got), len(want))
}
