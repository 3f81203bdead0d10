// Package litegpu is a modeling and simulation toolkit for exploring
// Lite-GPU AI clusters — datacenter designs that replace large multi-die
// GPU packages with many small single-die GPUs connected by co-packaged
// optics, as proposed in "Good things come in small packages: Should we
// build AI clusters with Lite-GPUs?" (HotOS 2025).
//
// The package exposes the toolkit's public API as a façade over the
// internal model packages:
//
//   - catalogs of GPU configurations (Table 1) and transformer models,
//   - DesignCluster, which derives the full hardware story of replacing
//     one big GPU with a group of Lite-GPUs (yield, cost, shoreline,
//     cooling, reliability),
//   - the Figure 3 roofline studies (PrefillStudy, DecodeStudy) and the
//     single-configuration Estimate,
//   - the discrete-event serving simulator (Serve) and workload
//     generators, built on the shared internal/sim event engine, with a
//     pluggable scheduling discipline per pool (SchedulerPolicy: the
//     paper's static phase split, continuous batching, or chunked
//     prefill), GPU failure injection with hot spares (ServeCluster,
//     ServeWithFailures), heterogeneous pools behind a pluggable
//     router (RoundRobin, JoinShortestQueue), and an optional
//     network-in-the-loop fabric (ServeNetworkConfig: KV-cache
//     handoffs and routing ingress become real transfers with port
//     contention, packet vs circuit switching, and path latency),
//   - the concurrent design-space sweep (Sweep), which crosses Table 1
//     GPU types × models × workloads × arrival rates × scheduling
//     policies over a worker pool and returns serving metrics per cell,
//   - the capacity planner (PlanCapacity), which binary-searches
//     instance counts over the serving simulator until the TTFT/TBT
//     attainment targets hold, returning the cheapest feasible
//     deployment — across scheduling policies and fabric designs when
//     asked — with a TCO ($/Mtoken) readout,
//   - the Section 2/3 claim studies (Yield, Shoreline, Network, Power,
//     BlastRadius, Granularity).
//
// All stochastic entry points take explicit seeds; every result is
// reproducible byte-for-byte — parallel sweeps derive per-cell seeds
// from the cell's grid index, so results are identical at any
// GOMAXPROCS.
package litegpu

import (
	"fmt"
	"io"

	"litegpu/internal/die"
	"litegpu/internal/experiments"
	"litegpu/internal/failure"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
	"litegpu/internal/network"
	"litegpu/internal/power"
	"litegpu/internal/serve"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Core types, re-exported for the public API surface.
type (
	// GPU is a GPU package specification (see Table 1 of the paper).
	GPU = hw.GPU
	// Transformer is a decoder-only LLM architecture.
	Transformer = model.Transformer
	// Precision sets bytes per weight/KV/activation element.
	Precision = model.Precision
	// Phase selects prefill or decode.
	Phase = inference.Phase
	// Options parameterizes the roofline studies.
	Options = inference.Options
	// Estimate is a modeled configuration result.
	Estimate = inference.Estimate
	// ServeConfig describes a serving deployment (GPU type, model,
	// scheduler policy, instance shape, batch caps).
	ServeConfig = serve.Config
	// ServeMetrics summarizes a serving simulation.
	ServeMetrics = serve.Metrics
	// SchedulerPolicy selects a pool's serving discipline: the paper's
	// static phase split, continuous batching, or chunked prefill.
	SchedulerPolicy = serve.SchedulerPolicy
	// Workload generates synthetic request streams.
	Workload = trace.Generator
	// Request is one inference request.
	Request = trace.Request
	// RequestStream yields a workload's arrivals one at a time (see
	// Workload.Stream): the constant-memory alternative to Generate for
	// million-request horizons.
	RequestStream = trace.Stream
	// RequestSource is the lazy request feed ServeClusterFrom
	// consumes; *RequestStream implements it. Custom sources must
	// yield requests in nondecreasing arrival order: an out-of-order,
	// NaN or negative arrival, or a negative token count, ends the run
	// with an error naming the request.
	RequestSource = serve.RequestSource
	// Figure3Row is one bar of a Figure 3 panel.
	Figure3Row = experiments.Figure3Row
	// Seconds is a duration in seconds.
	Seconds = units.Seconds
)

// The two inference phases.
const (
	Prefill = inference.Prefill
	Decode  = inference.Decode
)

// The three scheduling policies.
const (
	// StaticDisaggregated is the paper's Splitwise-style phase split
	// (the default).
	StaticDisaggregated = serve.StaticDisaggregated
	// ContinuousBatching colocates both phases per instance, refilling
	// freed batch slots every iteration (vLLM/Orca style).
	ContinuousBatching = serve.ContinuousBatching
	// ChunkedPrefill adds Sarathi-style prompt chunking to continuous
	// batching, bounding decode stalls by the chunk size.
	ChunkedPrefill = serve.ChunkedPrefill
)

// ParseSchedulerPolicy maps a CLI name (static | continuous | chunked)
// to its SchedulerPolicy.
func ParseSchedulerPolicy(name string) (SchedulerPolicy, error) {
	return serve.ParseSchedulerPolicy(name)
}

// SchedulerPolicies returns all three scheduling policies in
// definition order.
func SchedulerPolicies() []SchedulerPolicy { return serve.SchedulerPolicies() }

// Catalog -------------------------------------------------------------------

// H100 returns the paper's baseline GPU.
func H100() GPU { return hw.H100() }

// Lite returns the basic quarter-scale Lite-GPU.
func Lite() GPU { return hw.Lite() }

// Table1 returns all six paper configurations.
func Table1() []GPU { return hw.Table1() }

// GPUByName looks up a Table 1 configuration.
func GPUByName(name string) (GPU, bool) { return hw.ByName(name) }

// Models returns the three models evaluated in the paper.
func Models() []Transformer { return model.PaperModels() }

// ModelByName looks up a model preset (including Llama3-8B).
func ModelByName(name string) (Transformer, bool) { return model.ByName(name) }

// DefaultOptions returns the paper's study parameters (FP8, 1500-token
// prompts, TTFT ≤ 1 s, TBT ≤ 50 ms).
func DefaultOptions() Options { return inference.DefaultOptions() }

// MinFeasibleTP returns the smallest tensor-parallel degree at which
// the model fits the GPU type for the given phase — the auto-sizing
// rule the sweep and the capacity planner use.
func MinFeasibleTP(gpu GPU, m Transformer, phase Phase, opts Options) (int, error) {
	return inference.MinFeasibleTP(gpu, m, phase, opts)
}

// FailureParams calibrates GPU failure and repair processes (see
// internal/failure).
type FailureParams = failure.Params

// DefaultFailureParams returns the studies' reliability calibration,
// optionally overriding the reference-package AFR (refAFR ≤ 0 keeps the
// default 5%).
func DefaultFailureParams(refAFR float64) FailureParams {
	p := failure.DefaultParams()
	if refAFR > 0 {
		p.RefAFR = refAFR
	}
	return p
}

// Cluster design --------------------------------------------------------------

// Design is the derived hardware story of replacing one big GPU with
// `Split` Lite-GPUs.
type Design struct {
	Parent GPU
	Lite   GPU
	Split  int

	// ShorelineGain is the total-perimeter (bandwidth-to-compute)
	// multiplier: √Split.
	ShorelineGain float64
	// YieldGain is the die-yield multiplier of the smaller die.
	YieldGain float64
	// SiliconCostSaving is the fractional silicon cost saving per unit
	// of compute.
	SiliconCostSaving float64
	// PackageCostSaving includes packaging and test.
	PackageCostSaving float64
	// Cooling is the cooling class one Lite package needs.
	Cooling power.Cooling
	// OverclockHeadroom is the sustained clock factor that cooling
	// allows.
	OverclockHeadroom float64
	// AvailabilityGain is instance availability with one spare Lite-GPU
	// minus availability of the parent instance with no spare, for an
	// 8-parent-GPU instance.
	AvailabilityGain float64
	// CircuitEnergyAdvantage is the fabric J/bit saving of circuit over
	// packet switching at the replacement cluster's scale.
	CircuitEnergyAdvantage float64
}

// DesignCluster derives the Lite-GPU replacement design for a parent GPU
// split `split` ways. Split must be at least 2.
func DesignCluster(parent GPU, split int) Design {
	if split < 2 {
		panic("litegpu: DesignCluster requires split ≥ 2")
	}
	lite := parent.Scale(1 / float64(split)).
		WithName(fmt.Sprintf("Lite(%s/%d)", parent.Name, split))
	cm := die.DefaultCostModel()
	pm := power.Default()
	frac := 1 / float64(split)
	cooling, _ := power.Required(lite)

	fp := failure.DefaultParams()
	instance := 8
	bigAvail := failure.AnalyticAvailability(failure.Spec{GPU: parent, InstanceGPUs: instance}, fp)
	liteAvail := failure.AnalyticAvailability(failure.Spec{
		GPU: lite, InstanceGPUs: instance * split, Spares: 1,
	}, fp)

	return Design{
		Parent:                 parent,
		Lite:                   lite,
		Split:                  split,
		ShorelineGain:          die.ShorelineGain(split),
		YieldGain:              die.YieldGain(cm.Yield, parent.DieArea, frac),
		SiliconCostSaving:      cm.SiliconCostReduction(parent.DieArea, frac),
		PackageCostSaving:      cm.CostReduction(parent.DieArea, frac),
		Cooling:                cooling,
		OverclockHeadroom:      pm.OverclockHeadroom(lite, cooling),
		AvailabilityGain:       liteAvail - bigAvail,
		CircuitEnergyAdvantage: network.CircuitEnergyAdvantage(instance*split, network.CoPackagedOptics()),
	}
}

// Roofline studies ------------------------------------------------------------

// Estimate models one (GPU, model, phase, cluster-size, batch)
// configuration with the paper's roofline methodology.
func EstimateConfig(gpu GPU, m Transformer, phase Phase, gpus, batch int, opts Options) (Estimate, error) {
	return inference.Run(gpu, m, phase, gpus, batch, opts)
}

// SearchBest sweeps batch sizes and GPU counts and returns the
// configuration with the highest tokens/s/SM under the phase's SLO.
func SearchBest(gpu GPU, m Transformer, phase Phase, opts Options) (Estimate, error) {
	res, err := inference.Search(gpu, m, phase, opts)
	if err != nil {
		return Estimate{}, err
	}
	return res.Best, nil
}

// PrefillStudy reproduces Figure 3a.
func PrefillStudy(opts Options) ([]Figure3Row, error) { return experiments.Figure3a(opts) }

// DecodeStudy reproduces Figure 3b.
func DecodeStudy(opts Options) ([]Figure3Row, error) { return experiments.Figure3b(opts) }

// Serving ----------------------------------------------------------------------

// CodingWorkload returns the paper's production-coding workload shape
// (median prompt 1500 tokens) at the given request rate.
func CodingWorkload(rate float64, seed uint64) Workload {
	return trace.CodingWorkload(rate, seed)
}

// ConversationWorkload returns a chat-style workload.
func ConversationWorkload(rate float64, seed uint64) Workload {
	return trace.ConversationWorkload(rate, seed)
}

// AgentWorkload returns an agentic workload: long prompts sharing one
// of a few long common prefixes (system prompt plus tool schemas), the
// shape that makes KV prefix caching pay off.
func AgentWorkload(rate float64, seed uint64) Workload {
	return trace.AgentWorkload(rate, seed)
}

// Reports ----------------------------------------------------------------------

// WriteReport renders every table, figure, and claim study to w — the
// same output the litegpu-figures binary produces with `all`.
func WriteReport(w io.Writer, seed uint64) error {
	experiments.RenderTable1(w)
	experiments.RenderFigure1(w)
	experiments.RenderFigure2(w)
	opts := inference.DefaultOptions()
	fa, err := experiments.Figure3a(opts)
	if err != nil {
		return err
	}
	experiments.RenderFigure3(w, "Figure 3a: prompt prefill (normalized tokens/s/SM)", fa)
	fb, err := experiments.Figure3b(opts)
	if err != nil {
		return err
	}
	experiments.RenderFigure3(w, "Figure 3b: decode (normalized tokens/s/SM)", fb)
	experiments.RenderYieldStudy(w)
	experiments.RenderShorelineStudy(w)
	experiments.RenderNetworkStudy(w, 512)
	experiments.RenderPowerStudy(w)
	experiments.RenderBlastRadiusStudy(w, seed)
	experiments.RenderGranularity(w, seed)
	experiments.RenderTCOStudy(w)
	experiments.RenderStragglerStudy(w, seed)
	experiments.RenderMemoryStudy(w)
	if err := experiments.RenderTrainingStudy(w); err != nil {
		return err
	}
	if err := experiments.RenderServingStudy(w, seed); err != nil {
		return err
	}
	return experiments.RenderServingGrid(w, seed)
}
