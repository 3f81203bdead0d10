package experiments

import (
	"context"
	"fmt"
	"io"

	"litegpu/internal/cluster"
	"litegpu/internal/failure"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/mathx"
	"litegpu/internal/model"
	"litegpu/internal/network"
	"litegpu/internal/power"
	"litegpu/internal/serve"
	"litegpu/internal/sweep"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// NetworkRow compares fabric options at one cluster scale.
type NetworkRow struct {
	Topology    network.Topology
	EnergyPJBit float64
	PathLatency units.Seconds
	Cost        units.Dollars
	BisectionBW units.BytesPerSec
	Feasible    bool
}

// NetworkStudy compares the paper's fabric options for a Lite-GPU
// cluster of the given size: the direct-connect quad group, packet-
// switched single-tier and leaf-spine fabrics, and the flat circuit-
// switched design — over copper and co-packaged optics.
func NetworkStudy(endpoints int) []NetworkRow {
	cpo := network.CoPackagedOptics()
	copper := network.Copper()
	topos := []network.Topology{
		network.DirectConnect(4, copper),
		network.DirectConnect(4, cpo),
		network.SingleSwitch(min(endpoints, network.PacketSwitch().Radix), cpo, network.PacketSwitch()),
		network.LeafSpine(endpoints, cpo, network.PacketSwitch()),
		network.FlatCircuit(endpoints, cpo, network.CircuitSwitch()),
	}
	var rows []NetworkRow
	for _, t := range topos {
		rows = append(rows, NetworkRow{
			Topology:    t,
			EnergyPJBit: t.EnergyPerBit() * 1e12,
			PathLatency: t.PathLatency(),
			Cost:        t.Cost(),
			BisectionBW: t.BisectionBW(),
			Feasible:    t.Feasible(),
		})
	}
	return rows
}

// CircuitAdvantage returns the per-bit energy saving of circuit over
// packet switching at the given scale (the paper's ≥50% claim).
func CircuitAdvantage(endpoints int) float64 {
	return network.CircuitEnergyAdvantage(endpoints, network.CoPackagedOptics())
}

// RenderNetworkStudy writes the fabric comparison.
func RenderNetworkStudy(w io.Writer, endpoints int) {
	var rows [][]string
	for _, r := range NetworkStudy(endpoints) {
		rows = append(rows, []string{
			r.Topology.Name,
			r.Topology.Link.Name,
			fmt.Sprintf("%.1f", r.EnergyPJBit),
			r.PathLatency.String(),
			r.BisectionBW.String(),
			r.Cost.String(),
			fmt.Sprintf("%v", r.Feasible),
		})
	}
	render(w, fmt.Sprintf("Section 3: fabric options for a %d-endpoint Lite-GPU cluster", endpoints),
		[]string{"Topology", "Link", "pJ/bit", "Switch lat.", "Bisection", "Cost", "Feasible"},
		rows)
	fmt.Fprintf(w, "circuit vs packet switching energy advantage at %d endpoints: %.0f%% (paper: >50%%)\n\n",
		endpoints, CircuitAdvantage(endpoints)*100)
}

// PowerRow is one load point of the power-granularity study.
type PowerRow struct {
	Load   float64
	Result power.PartialLoad
}

// PowerStudy sweeps serving load for one H100 versus its four-Lite-GPU
// replacement with per-package gating — the paper's finer-granularity
// power-management argument.
func PowerStudy() []PowerRow {
	m := power.Default()
	var rows []PowerRow
	for _, load := range []float64{0.05, 0.10, 0.25, 0.50, 0.75, 1.0} {
		rows = append(rows, PowerRow{Load: load, Result: m.AtLoad(hw.H100(), 4, load)})
	}
	return rows
}

// CoolingRow summarizes each Table 1 config's cooling situation.
type CoolingRow struct {
	GPU      hw.GPU
	Cooling  power.Cooling
	OK       bool
	Headroom float64 // max sustained clock factor on that cooling
}

// CoolingStudy reports required cooling and overclock headroom per
// configuration (the basis of the Lite+FLOPS variants).
func CoolingStudy() []CoolingRow {
	m := power.Default()
	var rows []CoolingRow
	for _, g := range hw.Table1() {
		c, ok := power.Required(g)
		rows = append(rows, CoolingRow{
			GPU: g, Cooling: c, OK: ok,
			Headroom: m.OverclockHeadroom(g, c),
		})
	}
	return rows
}

// RenderPowerStudy writes both power tables.
func RenderPowerStudy(w io.Writer) {
	var rows [][]string
	for _, r := range PowerStudy() {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", r.Load*100),
			r.Result.BigWatts.String(),
			fmt.Sprintf("%d", r.Result.LiteActive),
			r.Result.LiteWatts.String(),
			fmt.Sprintf("%.1f%%", r.Result.Saving*100),
		})
	}
	render(w, "Section 3: power at partial load — 1×H100 (DVFS floor) vs 4×Lite (gate idle members)",
		[]string{"Load", "H100 power", "Lite active", "Lite power", "Saving"},
		rows)

	var crows [][]string
	for _, r := range CoolingStudy() {
		crows = append(crows, []string{
			r.GPU.Name,
			r.GPU.TDP.String(),
			r.Cooling.String(),
			fmt.Sprintf("%.2f×", r.Headroom),
		})
	}
	render(w, "Cooling class and sustained-clock headroom per configuration",
		[]string{"GPU", "TDP", "Cooling", "Clock headroom"},
		crows)
}

// BlastRow is one spare-count point of the fault-tolerance study.
type BlastRow struct {
	Spec        failure.Spec
	Analytic    float64
	Simulated   float64
	SpareCost   float64
	BlastRadius float64
}

// BlastRadiusStudy compares an 8×H100 model instance against its 32×Lite
// replacement across spare counts, with Monte Carlo validation of the
// analytic availability.
func BlastRadiusStudy(seed uint64) []BlastRow {
	p := failure.DefaultParams()
	specs := []failure.Spec{
		{GPU: hw.H100(), InstanceGPUs: 8, Spares: 0},
		{GPU: hw.H100(), InstanceGPUs: 8, Spares: 1},
		{GPU: hw.Lite(), InstanceGPUs: 32, Spares: 0},
		{GPU: hw.Lite(), InstanceGPUs: 32, Spares: 1},
		{GPU: hw.Lite(), InstanceGPUs: 32, Spares: 2},
		{GPU: hw.Lite(), InstanceGPUs: 32, Spares: 4},
	}
	var rows []BlastRow
	for _, s := range specs {
		sim := failure.Simulate(s, p, 10*failure.Year, 200, seed)
		rows = append(rows, BlastRow{
			Spec:        s,
			Analytic:    failure.AnalyticAvailability(s, p),
			Simulated:   sim.Availability,
			SpareCost:   s.SpareCostFraction(),
			BlastRadius: s.HardwareBlastRadius(),
		})
	}
	return rows
}

// RenderBlastRadiusStudy writes the fault-tolerance table.
func RenderBlastRadiusStudy(w io.Writer, seed uint64) {
	var rows [][]string
	for _, r := range BlastRadiusStudy(seed) {
		rows = append(rows, []string{
			r.Spec.GPU.Name,
			fmt.Sprintf("%d", r.Spec.InstanceGPUs),
			fmt.Sprintf("%d", r.Spec.Spares),
			fmt.Sprintf("%.3f%%", r.BlastRadius*100),
			fmt.Sprintf("%.2f%%", r.SpareCost*100),
			fmt.Sprintf("%.7f", r.Analytic),
			fmt.Sprintf("%.7f", r.Simulated),
		})
	}
	render(w, "Section 3: blast radius and hot spares — instance availability (analytic + Monte Carlo)",
		[]string{"GPU", "Instance", "Spares", "Blast radius", "Spare cost", "Avail (analytic)", "Avail (simulated)"},
		rows)
}

// GranularityResult is the allocation-granularity comparison.
type GranularityResult struct {
	Big, Lite cluster.StreamResult
}

// Granularity runs the equal-capacity allocation study: fractional-GPU
// job demands on an H100 cluster vs its 4×-split Lite equivalent.
func Granularity(seed uint64) GranularityResult {
	big, lite := cluster.GranularityStudy(hw.H100(), 16, 4, 200, 0.1, 2.5, seed)
	return GranularityResult{Big: big, Lite: lite}
}

// RenderGranularity writes the comparison.
func RenderGranularity(w io.Writer, seed uint64) {
	r := Granularity(seed)
	rows := [][]string{
		{"H100 ×16", fmt.Sprintf("%d", r.Big.Placed), fmt.Sprintf("%d", r.Big.Rejected),
			fmt.Sprintf("%.1f%%", r.Big.MeanUseful*100), fmt.Sprintf("%.1f%%", r.Big.MeanStranded*100)},
		{"Lite ×64", fmt.Sprintf("%d", r.Lite.Placed), fmt.Sprintf("%d", r.Lite.Rejected),
			fmt.Sprintf("%.1f%%", r.Lite.MeanUseful*100), fmt.Sprintf("%.1f%%", r.Lite.MeanStranded*100)},
	}
	render(w, "Section 3: allocation granularity — equal-capacity clusters, fractional-GPU job mix",
		[]string{"Cluster", "Placed", "Rejected", "Useful util.", "Stranded"},
		rows)
}

// ServingResult is the discrete-event validation of the analytical model.
type ServingResult struct {
	Config  serve.Config
	Metrics serve.Metrics
}

// ServingStudy runs the event-driven simulator on the paper's coding
// workload with Splitwise-style phase splitting, validating that the
// roofline configurations hold their SLOs under queueing.
func ServingStudy(seed uint64) (ServingResult, error) {
	cfg := serve.Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_70B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 2,
		PrefillGPUs:      2,
		DecodeInstances:  1,
		DecodeGPUs:       2,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
	gen := trace.CodingWorkload(1.2, seed)
	reqs, err := gen.Generate(300)
	if err != nil {
		return ServingResult{}, err
	}
	cm, err := serve.RunCluster(serve.ClusterConfig{
		Pools: []serve.Pool{{Name: cfg.GPU.Name, Config: cfg}},
	}, serve.FromSlice(reqs), 420)
	if err != nil {
		return ServingResult{}, err
	}
	return ServingResult{Config: cfg, Metrics: cm.Pools[0].Metrics}, nil
}

// RenderServingStudy writes the serving-simulation report.
func RenderServingStudy(w io.Writer, seed uint64) error {
	r, err := ServingStudy(seed)
	if err != nil {
		return err
	}
	m := r.Metrics
	fmt.Fprintln(w, "Section 4 validation: event-driven serving simulation (Splitwise phase splitting)")
	fmt.Fprintf(w, "  deployment: %d×%d-GPU prefill + %d×%d-GPU decode (%s, %s)\n",
		r.Config.PrefillInstances, r.Config.PrefillGPUs,
		r.Config.DecodeInstances, r.Config.DecodeGPUs,
		r.Config.GPU.Name, r.Config.Model.Name)
	fmt.Fprintf(w, "  arrived %d, completed %d, tokens %d\n", m.Arrived, m.Completed, m.TokensGenerated)
	fmt.Fprintf(w, "  TTFT p50/p99: %v / %v (SLO 1 s, attainment %.1f%%)\n",
		units.Seconds(m.TTFT.P50), units.Seconds(m.TTFT.P99), m.TTFTAttainment*100)
	fmt.Fprintf(w, "  TBT  p50/p99: %v / %v (SLO 50 ms, attainment %.1f%%)\n",
		units.Seconds(m.TBT.P50), units.Seconds(m.TBT.P99), m.TBTAttainment*100)
	fmt.Fprintf(w, "  utilization: prefill %.1f%%, decode %.1f%%\n\n",
		m.PrefillUtilization*100, m.DecodeUtilization*100)
	return nil
}

// ServingGridCell is one (deployment, rate, scheduler, failure-mode)
// point of the serving grid.
type ServingGridCell struct {
	Label     string
	Rate      float64
	Scheduler string
	Failure   string
	Config    serve.Config
	Metrics   serve.Metrics
}

// GridFailureMode is one failure-axis setting of the serving grid.
type GridFailureMode struct {
	Name     string
	Failures serve.FailureConfig
}

// GridFailureModes returns the grid's failure axis: a clean baseline and
// an accelerated-AFR mode (default calibration sped up 3×10⁵×, one hot
// spare) that makes instance deaths and spare takeovers visible inside
// the seven-minute simulation window.
func GridFailureModes() []GridFailureMode {
	return []GridFailureMode{
		{Name: "none"},
		{Name: "afr×3e5+1sp", Failures: serve.FailureConfig{
			Enabled:   true,
			Spares:    1,
			TimeScale: 3e5,
		}},
	}
}

// ServingGrid crosses the paper's two serving deployments — an H100
// cluster and its 4×-Lite replacement — with a range of arrival rates,
// the three scheduling policies (static phase split, continuous
// batching, chunked prefill) on the same silicon, and the failure-mode
// axis, running every simulation concurrently over the sweep pool. Each
// cell's workload seed derives from (seed, rate index) and its failure
// seed from (seed, cell index), so the grid is byte-identical at any
// worker count.
func ServingGrid(seed uint64) ([]ServingGridCell, error) {
	return servingGrid(seed, 0)
}

// ServingGridSequential is ServingGrid pinned to one worker — the
// baseline for the speedup benchmark and determinism tests.
func ServingGridSequential(seed uint64) ([]ServingGridCell, error) {
	return servingGrid(seed, 1)
}

func servingGrid(seed uint64, workers int) ([]ServingGridCell, error) {
	opts := inference.DefaultOptions()
	deployments := []struct {
		label string
		cfg   serve.Config
	}{
		{"H100 2×2P+1×2D", serve.Config{
			GPU: hw.H100(), Model: model.Llama3_70B(), Opts: opts,
			PrefillInstances: 2, PrefillGPUs: 2,
			DecodeInstances: 1, DecodeGPUs: 2,
			MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		}},
		{"Lite 2×8P+1×8D", serve.Config{
			GPU: hw.Lite(), Model: model.Llama3_70B(), Opts: opts,
			PrefillInstances: 2, PrefillGPUs: 8,
			DecodeInstances: 1, DecodeGPUs: 8,
			MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		}},
	}
	rates := []float64{0.6, 1.2, 2.4}
	scheds := serve.SchedulerPolicies()
	modes := GridFailureModes()

	return sweep.RunN(context.Background(), workers, sweep.Grid(len(deployments), len(rates), len(scheds), len(modes)),
		func(_ context.Context, idx int, at []int) (ServingGridCell, error) {
			d, rate, sp, fm := deployments[at[0]], rates[at[1]], scheds[at[2]], modes[at[3]]
			c := ServingGridCell{Label: d.label, Rate: rate, Scheduler: sp.String(), Failure: fm.Name, Config: d.cfg}
			c.Config.Scheduler = sp
			// Seed by rate coordinate, not flat cell index: the
			// deployments, schedulers, and failure modes being compared at
			// one rate must face the identical request stream, or their
			// metric differences would partly be trace noise rather than
			// hardware or policy.
			gen := trace.CodingWorkload(rate, mathx.DeriveSeed(seed, uint64(at[1])))
			reqs, err := gen.Generate(300)
			if err != nil {
				return ServingGridCell{}, err
			}
			cc := serve.ClusterConfig{
				Pools:    []serve.Pool{{Name: c.Label, Config: c.Config}},
				Failures: fm.Failures,
			}
			// The failure processes get their own per-cell stream so the
			// grid stays byte-identical at any worker count.
			cc.Failures.Seed = mathx.DeriveSeed(seed^0xfa11, uint64(idx))
			cm, err := serve.RunCluster(cc, serve.FromSlice(reqs), 420)
			if err != nil {
				return ServingGridCell{}, fmt.Errorf("experiments: %s @ %.1f req/s (%s): %w", c.Label, c.Rate, c.Failure, err)
			}
			c.Metrics = cm.Pools[0].Metrics
			return c, nil
		})
}

// RenderServingGrid writes the deployment × rate comparison.
func RenderServingGrid(w io.Writer, seed uint64) error {
	cells, err := ServingGrid(seed)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range cells {
		m := c.Metrics
		rows = append(rows, []string{
			c.Label,
			fmt.Sprintf("%.1f", c.Rate),
			c.Scheduler,
			c.Failure,
			fmt.Sprintf("%d/%d", m.Completed, m.Arrived),
			fmt.Sprintf("%d", m.Dropped),
			fmt.Sprintf("%.0f ms", m.TTFT.P99*1e3),
			fmt.Sprintf("%.1f ms", m.TBT.P99*1e3),
			fmt.Sprintf("%.1f%%", m.TTFTAttainment*100),
			fmt.Sprintf("%.1f%%", m.TBTAttainment*100),
			fmt.Sprintf("%.3f/%d", m.Availability, m.FailureEvents),
			fmt.Sprintf("%.0f%%/%.0f%%", m.PrefillUtilization*100, m.DecodeUtilization*100),
		})
	}
	render(w, "Section 4: serving grid — deployments × arrival rates × schedulers × failure modes (coding workload)",
		[]string{"Deployment", "req/s", "Sched", "Failures", "Done", "Drop", "TTFT p99", "TBT p99", "TTFT att.", "TBT att.", "Avail/Ev", "Util P/D"},
		rows)
	return nil
}
