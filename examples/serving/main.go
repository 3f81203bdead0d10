// Serving: drive the discrete-event simulator with the paper's coding
// workload on an H100 deployment and its Lite-GPU replacement, with
// Splitwise-style phase splitting.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"

	"litegpu"
)

func main() {
	const (
		rate    = 1.2 // requests/s
		horizon = 300 // seconds of workload
		seed    = 7
	)
	model, ok := litegpu.ModelByName("Llama3-70B")
	if !ok {
		log.Fatal("model preset missing")
	}
	gen := litegpu.CodingWorkload(rate, seed)
	reqs, err := gen.Generate(horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d requests over %d s (median prompt 1500 tokens)\n\n", len(reqs), horizon)

	// H100 deployment: 2 prefill engines (2 GPUs each), 1 decode engine
	// (2 GPUs) — and the equal-silicon Lite replacement (×4 GPUs each).
	deployments := []struct {
		name string
		gpu  litegpu.GPU
		tp   int
	}{
		{"H100", litegpu.H100(), 2},
		{"Lite", litegpu.Lite(), 8},
	}
	for _, d := range deployments {
		cfg := litegpu.ServeConfig{
			GPU:              d.gpu,
			Model:            model,
			Opts:             litegpu.DefaultOptions(),
			PrefillInstances: 2, PrefillGPUs: d.tp,
			DecodeInstances: 1, DecodeGPUs: d.tp,
			MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		}
		cm, err := litegpu.ServeCluster(litegpu.ServeClusterConfig{
			Pools: []litegpu.ServePool{{Config: cfg}},
		}, reqs, horizon+120)
		if err != nil {
			log.Fatal(err)
		}
		m := cm.Pools[0].Metrics
		fmt.Printf("== %s (TP=%d per engine) ==\n", d.name, d.tp)
		fmt.Printf("  completed %d/%d, tokens %d\n", m.Completed, m.Arrived, m.TokensGenerated)
		fmt.Printf("  TTFT p50/p99: %.0f / %.0f ms  (attainment %.1f%% of 1 s SLO)\n",
			m.TTFT.P50*1e3, m.TTFT.P99*1e3, m.TTFTAttainment*100)
		fmt.Printf("  TBT  p50/p99: %.1f / %.1f ms  (attainment %.1f%% of 50 ms SLO)\n",
			m.TBT.P50*1e3, m.TBT.P99*1e3, m.TBTAttainment*100)
		fmt.Printf("  utilization: prefill %.1f%%, decode %.1f%%\n\n",
			m.PrefillUtilization*100, m.DecodeUtilization*100)
	}
	fmt.Println("Equal-silicon deployments serve the same stream with comparable latency:")
	fmt.Println("the event-driven simulation confirms the roofline study under queueing.")
}
