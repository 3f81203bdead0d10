package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/mathx"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// goldenFile pins the static scheduler to the exact Metrics the
// pre-scheduler-interface engine produced. The file was captured at the
// commit before the Scheduler extraction (PR 3) with
// LITEGPU_UPDATE_GOLDENS=1; every float is rendered with %x (hex float,
// full precision), so a match is byte-identity, not approximate
// equality — the repo's determinism contract for simulator refactors.
const goldenFile = "testdata/static_goldens.txt"

// goldenScenario is one (deployment, trace) pair of the golden corpus.
// The scenarios cover both workload shapes, single- and multi-instance
// pools, both GPU types, a decode-heavy no-drain regime, and a
// heterogeneous two-pool cluster behind each router.
type goldenScenario struct {
	name    string
	cluster ClusterConfig
	rate    float64
	seed    uint64
	conv    bool // conversation workload instead of coding
	agent   bool // shared-prefix agent workload (overrides conv)
	arrive  units.Seconds
	horizon units.Seconds
}

func goldenScenarios() []goldenScenario {
	small := Config{
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
	h70 := Config{
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
	l70 := h70
	l70.GPU = hw.Lite()
	l70.PrefillGPUs = 8
	l70.DecodeGPUs = 8
	wide := small
	wide.PrefillInstances = 2
	wide.DecodeInstances = 3
	wide.MaxDecodeBatch = 8
	lite4 := small
	lite4.GPU = hw.Lite()
	lite4.PrefillGPUs = 4
	lite4.DecodeGPUs = 4

	jsq := clusterOf(small, lite4)
	jsq.Router = JoinShortestQueue
	return []goldenScenario{
		{name: "small-coding", cluster: clusterOf(small), rate: 1.0, seed: 7, arrive: 200, horizon: 400},
		{name: "h100-70b-coding", cluster: clusterOf(h70), rate: 1.2, seed: 42, arrive: 300, horizon: 420},
		{name: "lite-70b-coding", cluster: clusterOf(l70), rate: 1.2, seed: 42, arrive: 300, horizon: 420},
		{name: "small-conv-nodrain", cluster: clusterOf(small), rate: 4.0, seed: 11, conv: true, arrive: 300, horizon: 300},
		{name: "wide-coding", cluster: clusterOf(wide), rate: 4.0, seed: 13, arrive: 200, horizon: 400},
		{name: "hetero-rr", cluster: clusterOf(small, lite4), rate: 2.0, seed: 17, arrive: 300, horizon: 500},
		{name: "hetero-jsq", cluster: jsq, rate: 2.0, seed: 17, arrive: 300, horizon: 500},
	}
}

// legacySummary is the exact pre-PR-10 mathx.Summary field set, in
// order. Every golden corpus below predates the P999 quantile, and %x
// renders every Summary field — so the frozen views embed this struct,
// verbatim, and new corpora pin the full Summary.
type legacySummary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

func legacySum(s mathx.Summary) legacySummary {
	return legacySummary{
		N: s.N, Mean: s.Mean, Stddev: s.Stddev,
		Min: s.Min, Max: s.Max,
		P50: s.P50, P90: s.P90, P99: s.P99,
	}
}

// legacyMetrics is the exact pre-PR-5 Metrics field set, in order.
// The static and scheduler golden corpora were captured before Metrics
// gained the network-transfer fields, and %x renders every field — so
// the corpora pin this view, verbatim, and a separate corpus
// (network_goldens.txt) pins the full struct for fabric-enabled runs.
// With Config.Network zeroed the new fields are all zero, so this view
// loses nothing the legacy corpus could have checked.
type legacyMetrics struct {
	Arrived                 int
	Completed               int
	Dropped                 int
	TTFT                    legacySummary
	TBT                     legacySummary
	E2E                     legacySummary
	TTFTAttainment          float64
	TTFTAttainmentCompleted float64
	TBTAttainment           float64
	PrefillUtilization      float64
	DecodeUtilization       float64
	TokensGenerated         int
	FailureEvents           int
	Requeued                int
	DroppedOnFailure        int
	Availability            float64
	Goodput                 float64
	BlastRadius             float64
}

func legacyView(m Metrics) legacyMetrics {
	return legacyMetrics{
		Arrived: m.Arrived, Completed: m.Completed, Dropped: m.Dropped,
		TTFT: legacySum(m.TTFT), TBT: legacySum(m.TBT), E2E: legacySum(m.E2E),
		TTFTAttainment:          m.TTFTAttainment,
		TTFTAttainmentCompleted: m.TTFTAttainmentCompleted,
		TBTAttainment:           m.TBTAttainment,
		PrefillUtilization:      m.PrefillUtilization,
		DecodeUtilization:       m.DecodeUtilization,
		TokensGenerated:         m.TokensGenerated,
		FailureEvents:           m.FailureEvents,
		Requeued:                m.Requeued,
		DroppedOnFailure:        m.DroppedOnFailure,
		Availability:            m.Availability,
		Goodput:                 m.Goodput,
		BlastRadius:             m.BlastRadius,
	}
}

// preKVMetrics is the exact pre-PR-8 Metrics field set, in order:
// the legacy fields plus the PR-5 network-transfer fields. The network
// golden corpus was captured before Metrics gained the KV-memory
// fields, so it pins this view verbatim; a separate corpus
// (kv_goldens.txt) pins the full struct for memory-enabled runs. With
// Config.KV zeroed the KV fields are all zero, so this view loses
// nothing the network corpus could have checked.
type preKVMetrics struct {
	Arrived                 int
	Completed               int
	Dropped                 int
	TTFT                    legacySummary
	TBT                     legacySummary
	E2E                     legacySummary
	TTFTAttainment          float64
	TTFTAttainmentCompleted float64
	TBTAttainment           float64
	PrefillUtilization      float64
	DecodeUtilization       float64
	TokensGenerated         int
	FailureEvents           int
	Requeued                int
	DroppedOnFailure        int
	Availability            float64
	Goodput                 float64
	BlastRadius             float64
	NetTransfers            int
	TransferBytes           legacySummary
	TransferTime            legacySummary
	NetworkBoundFraction    float64
}

func preKVView(m Metrics) preKVMetrics {
	return preKVMetrics{
		Arrived: m.Arrived, Completed: m.Completed, Dropped: m.Dropped,
		TTFT: legacySum(m.TTFT), TBT: legacySum(m.TBT), E2E: legacySum(m.E2E),
		TTFTAttainment:          m.TTFTAttainment,
		TTFTAttainmentCompleted: m.TTFTAttainmentCompleted,
		TBTAttainment:           m.TBTAttainment,
		PrefillUtilization:      m.PrefillUtilization,
		DecodeUtilization:       m.DecodeUtilization,
		TokensGenerated:         m.TokensGenerated,
		FailureEvents:           m.FailureEvents,
		Requeued:                m.Requeued,
		DroppedOnFailure:        m.DroppedOnFailure,
		Availability:            m.Availability,
		Goodput:                 m.Goodput,
		BlastRadius:             m.BlastRadius,
		NetTransfers:            m.NetTransfers,
		TransferBytes:           legacySum(m.TransferBytes),
		TransferTime:            legacySum(m.TransferTime),
		NetworkBoundFraction:    m.NetworkBoundFraction,
	}
}

// preOverloadMetrics is the exact pre-PR-9 Metrics field set, in
// order: the preKV fields plus the PR-8 KV-memory fields. The KV golden
// corpus was captured before Metrics gained the closed-loop overload
// fields, so it pins this view verbatim; a separate corpus
// (overload_goldens.txt) pins the full struct for client-loop-enabled
// runs. With Config.Client, Admission, Autoscale, and Straggler zeroed
// the overload fields are all zero, so this view loses nothing the KV
// corpus could have checked.
type preOverloadMetrics struct {
	Arrived                 int
	Completed               int
	Dropped                 int
	TTFT                    legacySummary
	TBT                     legacySummary
	E2E                     legacySummary
	TTFTAttainment          float64
	TTFTAttainmentCompleted float64
	TBTAttainment           float64
	PrefillUtilization      float64
	DecodeUtilization       float64
	TokensGenerated         int
	FailureEvents           int
	Requeued                int
	DroppedOnFailure        int
	Availability            float64
	Goodput                 float64
	BlastRadius             float64
	NetTransfers            int
	TransferBytes           legacySummary
	TransferTime            legacySummary
	NetworkBoundFraction    float64
	KVPreemptions           int
	KVCacheHitRate          float64
	KVPeakBlocks            int
	KVMeanBlocks            float64
	KVRecomputeTokens       int
}

func preOverloadView(m Metrics) preOverloadMetrics {
	return preOverloadMetrics{
		Arrived: m.Arrived, Completed: m.Completed, Dropped: m.Dropped,
		TTFT: legacySum(m.TTFT), TBT: legacySum(m.TBT), E2E: legacySum(m.E2E),
		TTFTAttainment:          m.TTFTAttainment,
		TTFTAttainmentCompleted: m.TTFTAttainmentCompleted,
		TBTAttainment:           m.TBTAttainment,
		PrefillUtilization:      m.PrefillUtilization,
		DecodeUtilization:       m.DecodeUtilization,
		TokensGenerated:         m.TokensGenerated,
		FailureEvents:           m.FailureEvents,
		Requeued:                m.Requeued,
		DroppedOnFailure:        m.DroppedOnFailure,
		Availability:            m.Availability,
		Goodput:                 m.Goodput,
		BlastRadius:             m.BlastRadius,
		NetTransfers:            m.NetTransfers,
		TransferBytes:           legacySum(m.TransferBytes),
		TransferTime:            legacySum(m.TransferTime),
		NetworkBoundFraction:    m.NetworkBoundFraction,
		KVPreemptions:           m.KVPreemptions,
		KVCacheHitRate:          m.KVCacheHitRate,
		KVPeakBlocks:            m.KVPeakBlocks,
		KVMeanBlocks:            m.KVMeanBlocks,
		KVRecomputeTokens:       m.KVRecomputeTokens,
	}
}

// preObsMetrics is the exact pre-PR-10 Metrics field set, in order:
// the preOverload fields plus the PR-9 closed-loop overload fields,
// with every Summary rendered through the pre-P999 legacySummary. The
// overload golden corpus was captured before mathx.Summary gained
// P999, so it pins this view verbatim; P999 is itself pinned by the
// deterministic-export corpus the observability tests add.
type preObsMetrics struct {
	Arrived                 int
	Completed               int
	Dropped                 int
	TTFT                    legacySummary
	TBT                     legacySummary
	E2E                     legacySummary
	TTFTAttainment          float64
	TTFTAttainmentCompleted float64
	TBTAttainment           float64
	PrefillUtilization      float64
	DecodeUtilization       float64
	TokensGenerated         int
	FailureEvents           int
	Requeued                int
	DroppedOnFailure        int
	Availability            float64
	Goodput                 float64
	BlastRadius             float64
	NetTransfers            int
	TransferBytes           legacySummary
	TransferTime            legacySummary
	NetworkBoundFraction    float64
	KVPreemptions           int
	KVCacheHitRate          float64
	KVPeakBlocks            int
	KVMeanBlocks            float64
	KVRecomputeTokens       int
	ClientTimeouts          int
	ClientRetries           int
	Abandoned               int
	Shed                    int
	ScaleUps                int
	ScaleDowns              int
	MeanLiveInstances       float64
	UsefulGoodput           float64
	Classes                 []ClassMetrics
}

func preObsView(m Metrics) preObsMetrics {
	return preObsMetrics{
		Arrived: m.Arrived, Completed: m.Completed, Dropped: m.Dropped,
		TTFT: legacySum(m.TTFT), TBT: legacySum(m.TBT), E2E: legacySum(m.E2E),
		TTFTAttainment:          m.TTFTAttainment,
		TTFTAttainmentCompleted: m.TTFTAttainmentCompleted,
		TBTAttainment:           m.TBTAttainment,
		PrefillUtilization:      m.PrefillUtilization,
		DecodeUtilization:       m.DecodeUtilization,
		TokensGenerated:         m.TokensGenerated,
		FailureEvents:           m.FailureEvents,
		Requeued:                m.Requeued,
		DroppedOnFailure:        m.DroppedOnFailure,
		Availability:            m.Availability,
		Goodput:                 m.Goodput,
		BlastRadius:             m.BlastRadius,
		NetTransfers:            m.NetTransfers,
		TransferBytes:           legacySum(m.TransferBytes),
		TransferTime:            legacySum(m.TransferTime),
		NetworkBoundFraction:    m.NetworkBoundFraction,
		KVPreemptions:           m.KVPreemptions,
		KVCacheHitRate:          m.KVCacheHitRate,
		KVPeakBlocks:            m.KVPeakBlocks,
		KVMeanBlocks:            m.KVMeanBlocks,
		KVRecomputeTokens:       m.KVRecomputeTokens,
		ClientTimeouts:          m.ClientTimeouts,
		ClientRetries:           m.ClientRetries,
		Abandoned:               m.Abandoned,
		Shed:                    m.Shed,
		ScaleUps:                m.ScaleUps,
		ScaleDowns:              m.ScaleDowns,
		MeanLiveInstances:       m.MeanLiveInstances,
		UsefulGoodput:           m.UsefulGoodput,
		Classes:                 m.Classes,
	}
}

// goldenView selects which slice of Metrics a corpus pins: each corpus
// renders exactly the field set that existed when it was captured, so
// later PRs can append Metrics fields without invalidating it.
type goldenView int

const (
	viewLegacy      goldenView = iota // pre-PR-5 fields (static, scheduler corpora)
	viewPreKV                         // pre-PR-8 fields (network corpus)
	viewPreOverload                   // pre-PR-9 fields (kv corpus)
	viewPreObs                        // pre-PR-10 fields (overload corpus)
	viewFull                          // entire Metrics struct (future corpora)
)

// goldenReport renders every scenario's ClusterMetrics in hex-float
// form: one block per scenario, one line per pool plus the aggregate,
// fields selected by the view.
func goldenReport(t *testing.T, scenarios []goldenScenario, view goldenView) string {
	t.Helper()
	var b strings.Builder
	render := func(m Metrics) string {
		switch view {
		case viewLegacy:
			return fmt.Sprintf("%x", legacyView(m))
		case viewPreKV:
			return fmt.Sprintf("%x", preKVView(m))
		case viewPreOverload:
			return fmt.Sprintf("%x", preOverloadView(m))
		case viewPreObs:
			return fmt.Sprintf("%x", preObsView(m))
		}
		return fmt.Sprintf("%x", m)
	}
	for _, sc := range scenarios {
		gen := trace.CodingWorkload(sc.rate, sc.seed)
		if sc.conv {
			gen = trace.ConversationWorkload(sc.rate, sc.seed)
		}
		if sc.agent {
			gen = trace.AgentWorkload(sc.rate, sc.seed)
		}
		reqs, err := gen.Generate(sc.arrive)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		cm, err := RunCluster(sc.cluster, FromSlice(reqs), sc.horizon)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "== %s\n", sc.name)
		for _, pm := range cm.Pools {
			fmt.Fprintf(&b, "pool %s: %s\n", pm.Name, render(pm.Metrics))
		}
		fmt.Fprintf(&b, "total: %s\n", render(cm.Total))
	}
	return b.String()
}

// TestStaticSchedulerMatchesPreRefactorGoldens proves the extracted
// StaticDisaggregated policy is byte-identical to the engine it was
// extracted from: the golden file predates the Scheduler interface, and
// %x leaves no room for float drift. Regenerate (only when knowingly
// changing simulator semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestStaticSchedulerMatchesPreRefactorGoldens(t *testing.T) {
	compareGoldens(t, goldenFile, goldenReport(t, goldenScenarios(), viewLegacy))
}

// compareGoldens checks (or, under LITEGPU_UPDATE_GOLDENS, rewrites) one
// golden corpus file against the freshly rendered report.
func compareGoldens(t *testing.T, file, got string) {
	t.Helper()
	if os.Getenv("LITEGPU_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", file, len(got))
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("missing golden corpus (run with LITEGPU_UPDATE_GOLDENS=1 to capture): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("simulator diverged from %s at line %d:\n got: %s\nwant: %s",
					file, i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("simulator diverged from %s (length %d vs %d)", file, len(got), len(want))
	}
}
