// Scheduling: run the same decode-heavy bursty trace through all three
// serving schedulers — static phase splitting, continuous batching, and
// chunked prefill — on an equal-silicon big-GPU vs Lite-GPU pair.
//
// The paper argues Lite-GPU clusters stand or fall on how well serving
// software hides the smaller per-GPU capacity. This example shows the
// software lever directly: on the identical hardware and trace,
// continuous batching turns the static split's stranded prefill silicon
// into goodput, and chunked prefill buys back the tail
// time-between-tokens that full prefill passes cost.
//
//	go run ./examples/scheduling
//
// Expected shape of the output (exact numbers depend on the catalog
// calibration):
//
//   - static completes the fewest requests on both GPU types (~3 200 of
//     ~4 800) — its lone decode pool saturates while the prefill pool
//     idles below 20%;
//   - continuous and chunked complete ~25% more at ~25% higher goodput,
//     trading a few ms of TBT p99 and a long TTFT tail for it (the
//     colocated pool prioritizes finishing admitted work over starting
//     new prompts when overloaded);
//   - chunked tracks continuous here because conversation prompts are
//     short; its TBT p99 advantage appears on long-prompt traces, where
//     stalls are bounded by the 512-token chunk instead of a whole
//     prompt pass (see docs/scheduling.md);
//   - the Lite pool (4 quarter-GPUs per H100 of silicon) reproduces the
//     H100 pool's ordering — the scheduling conclusions transfer across
//     the hardware axis.
package main

import (
	"fmt"
	"log"

	"litegpu"
)

func main() {
	const (
		rate    = 8.0 // req/s before bursts; bursts push to 4×
		horizon = 300 // arrival window == run horizon (no drain)
		seed    = 11
	)
	model, ok := litegpu.ModelByName("Llama3-8B")
	if !ok {
		log.Fatal("model preset missing")
	}

	// Decode-heavy conversation traffic with Markov-modulated bursts:
	// the regime where scheduling, not raw FLOPs, decides throughput.
	gen := litegpu.ConversationWorkload(rate, seed)
	gen.BurstFactor = 4
	gen.BurstFraction = 0.25
	gen.BurstDwell = 40
	reqs, err := gen.Generate(horizon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d bursty conversation requests over %d s\n\n", len(reqs), horizon)

	// One H100 of silicon per phase pool vs the same silicon as four
	// quarter-scale Lite GPUs. The colocated schedulers derive their
	// shape from the same fields, so every row is equal hardware.
	pairs := []struct {
		name string
		gpu  litegpu.GPU
		tp   int
	}{
		{"H100 (1 GPU/engine)", litegpu.H100(), 1},
		{"Lite (4 GPUs/engine)", litegpu.Lite(), 4},
	}
	for _, p := range pairs {
		fmt.Printf("== %s ==\n", p.name)
		for _, pol := range litegpu.SchedulerPolicies() {
			cfg := litegpu.ServeConfig{
				GPU:              p.gpu,
				Model:            model,
				Opts:             litegpu.DefaultOptions(),
				Scheduler:        pol,
				PrefillInstances: 1, PrefillGPUs: p.tp,
				DecodeInstances: 1, DecodeGPUs: p.tp,
				MaxPrefillBatch: 4, MaxDecodeBatch: 8,
			}
			cm, err := litegpu.ServeCluster(litegpu.ServeClusterConfig{
				Pools: []litegpu.ServePool{{Config: cfg}},
			}, reqs, horizon) // no drain: backlog counts
			if err != nil {
				log.Fatal(err)
			}
			m := cm.Pools[0].Metrics
			fmt.Printf("  %-10s completed %4d/%4d  goodput %6.0f tok/s  TBT p99 %.1f ms  TTFT p99 %6.2f s\n",
				pol, m.Completed, m.Arrived, m.Goodput, m.TBT.P99*1e3, m.TTFT.P99)
		}
		fmt.Println()
	}
	fmt.Println("Reading the rows: continuous batching converts the static split's idle")
	fmt.Println("prefill engine into decode capacity (more completions, higher goodput);")
	fmt.Println("chunked prefill keeps that win, and on long-prompt traces also bounds")
	fmt.Println("each decode stall by one 512-token chunk. The same ordering holds on")
	fmt.Println("both sides of the silicon split, which is the paper's point: the")
	fmt.Println("scheduler, not the package size, sets the serving ceiling.")
}
