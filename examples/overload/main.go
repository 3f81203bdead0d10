// Overload: a two-tenant deployment hit by a flash crowd at roughly
// twice its sustainable rate, served with and without adaptive load
// shedding. The clients are a closed loop — each request carries a 15 s
// deadline and two retries with jittered exponential backoff — so
// overload feeds back: timed-out work is cancelled and re-submitted,
// and a client that exhausts its retries abandons.
//
// Without a gate, the queue grows without bound during the crowd and
// both tenants collapse together: the paid tier's first-token SLO
// attainment drops to a fraction, and TTFT p99 climbs to the client
// timeout. With the adaptive gate, pressure sheds the free tier first,
// the paid tier keeps its SLO, and deadline-qualified goodput is
// several times higher on the same silicon.
//
//	go run ./examples/overload
//
// Expected output (exact numbers are deterministic for the fixed seeds;
// shapes are what matters):
//
//	two tenants on 1xH100 prefill + 1xH100 decode, flash crowd 2x at t=30..90s
//	                     no gate    adaptive gate
//	paid TTFT attainment   ~18%         ~81%
//	free TTFT attainment   ~16%          ~2%
//	TTFT p99               ~15s        ~0.1s
//	useful goodput       ~619 tok/s  ~2706 tok/s
package main

import (
	"fmt"

	"litegpu"
)

func main() {
	// Two tenant classes share the deployment: a paid tier at priority 1
	// and a heavier free tier at priority 0, with a flash crowd doubling
	// both arrival rates from t=30s to t=90s.
	workload := litegpu.MultiWorkload{
		Classes: []litegpu.TenantClass{
			{Name: "paid", Gen: litegpu.ConversationWorkload(20, 0), Priority: 1},
			{Name: "free", Gen: litegpu.ConversationWorkload(60, 0), Priority: 0},
		},
		Envelope: litegpu.WorkloadEnvelope{
			Flash: []litegpu.FlashCrowd{{At: 30, Duration: 60, Factor: 2}},
		},
		Seed: 5,
	}
	reqs, err := workload.Generate(120)
	if err != nil {
		panic(err)
	}

	// Closed-loop clients: 15 s deadline, two retries with jittered
	// exponential backoff, then abandonment. The paid tier's TTFT SLO is
	// 2 s; the free tier has no first-token promise.
	clients := litegpu.ServeClientConfig{
		Classes: []litegpu.ClientBehavior{
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5, TTFTSLO: 2},
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5},
		},
		Seed: 7,
	}

	cfg := litegpu.ServeConfig{
		GPU:              litegpu.H100(),
		Model:            mustModel("Llama3-8B"),
		Opts:             litegpu.DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		Client: clients,
		// Decode KV memory is a finite paged resource: overload pressure
		// shows up as preemptions and recompute, not just queueing.
		KV: litegpu.ServeKVConfig{Policy: litegpu.KVRecompute, Blocks: 2000},
	}
	serve := func(cfg litegpu.ServeConfig) litegpu.ServeMetrics {
		cm, err := litegpu.ServeCluster(litegpu.ServeClusterConfig{Pools: []litegpu.ServePool{{Config: cfg}}}, reqs, 300)
		if err != nil {
			panic(err)
		}
		return cm.Pools[0].Metrics
	}
	ungated := serve(cfg)

	gated := cfg
	gated.Admission = litegpu.ServeAdmissionConfig{
		Policy:     litegpu.AdmitAdaptive,
		QueueLimit: 48,
		Levels:     4,
	}
	shed := serve(gated)

	fmt.Println("two tenants on 1xH100 prefill + 1xH100 decode, flash crowd 2x at t=30..90s")
	fmt.Printf("%-22s %12s %14s\n", "", "no gate", "adaptive gate")
	fmt.Printf("%-22s %11.1f%% %13.1f%%\n", "paid TTFT attainment",
		ungated.Classes[0].TTFTAttainment*100, shed.Classes[0].TTFTAttainment*100)
	fmt.Printf("%-22s %11.1f%% %13.1f%%\n", "free TTFT attainment",
		ungated.Classes[1].TTFTAttainment*100, shed.Classes[1].TTFTAttainment*100)
	fmt.Printf("%-22s %11.1fs %13.1fs\n", "TTFT p99", ungated.TTFT.P99, shed.TTFT.P99)
	fmt.Printf("%-22s %7.0f tok/s %9.0f tok/s\n", "useful goodput",
		ungated.UsefulGoodput, shed.UsefulGoodput)
	fmt.Printf("%-22s %12d %14d\n", "shed", ungated.Shed, shed.Shed)
	fmt.Printf("%-22s %12d %14d\n", "abandoned", ungated.Abandoned, shed.Abandoned)

	fmt.Println("\nThe gate sheds the free tier first (adaptive queue-depth thresholds by")
	fmt.Println("priority), so the paid tier rides out the crowd inside its SLO while the")
	fmt.Println("ungated run collapses for everyone — and shedding early means the work the")
	fmt.Println("cluster does finish still matters to a waiting client.")
}

func mustModel(name string) litegpu.Transformer {
	m, ok := litegpu.ModelByName(name)
	if !ok {
		panic("unknown model " + name)
	}
	return m
}
