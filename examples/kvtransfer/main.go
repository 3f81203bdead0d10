// KV transfer: put the network fabric inside the serving event loop
// and watch the paper's central tension play out — an equal-silicon
// H100-vs-Lite disaggregated pair serves the identical trace, but only
// the Lite deployment's KV-cache handoffs cross the datacenter fabric.
//
// The big-GPU deployment (1 prefill + 1 decode instance of 2×H100)
// fits its phase pools inside one 8-package scale-up node, so its
// prefill→decode handoff rides the node interconnect for free. The
// Lite replacement spends the same silicon as two TP-8 instances of
// quarter-size GPUs — each filling a node of its own — so every
// finished prefill ships ~246 MB of KV cache (Llama3-70B, FP8,
// 1500-token median prompts) across the switched fabric, paying port
// contention and path latency before decode can start.
//
//	go run ./examples/kvtransfer
//
// Expected shape of the output (exact numbers depend on the catalog
// calibration):
//
//   - with the fabric off, both deployments serve comparably — the
//     analytical models' equal-silicon story;
//   - over a pluggable-optics Clos (one 100 GB/s NIC per instance,
//     packet-switched), the H100 pool's TTFT does not move AT ALL
//     (byte-identical metrics — it never touches the fabric), while
//     the Lite pool pays ~2.5 ms mean TTFT for serialization, growing
//     with contention when arrivals burst;
//   - scaling path latency ×10⁴ (the network's failure-timescale
//     analogue: congested switches, deep software stacks) pushes the
//     Lite penalty toward ~10 ms per request — visible against a 1 s
//     TTFT SLO at 99% attainment;
//   - a circuit-switched co-packaged-optics flat fabric (fabric ports
//     on every GPU: a TP-8 Lite instance injects at 900 GB/s instead
//     of 100, one optical hop at any scale) recovers most of that
//     gap — the paper's Section 3 argument, measured in simulated
//     milliseconds.
package main

import (
	"fmt"
	"log"

	"litegpu"
)

func main() {
	const (
		rate    = 1.2
		horizon = 120
		run     = 300
		seed    = 42
	)
	model, ok := litegpu.ModelByName("Llama3-70B")
	if !ok {
		log.Fatal("model preset missing")
	}

	reqs, err := litegpu.CodingWorkload(rate, seed).Generate(horizon)
	if err != nil {
		log.Fatal(err)
	}

	h100 := litegpu.ServeConfig{
		GPU: litegpu.H100(), Model: model, Opts: litegpu.DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 2,
		DecodeInstances: 1, DecodeGPUs: 2,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
	}
	lite := h100
	lite.GPU = litegpu.Lite()
	lite.PrefillGPUs = 8 // same silicon: 4 H100s = 16 quarter-size Lites
	lite.DecodeGPUs = 8

	fabrics := []struct {
		name string
		net  litegpu.ServeNetworkConfig
	}{
		{"infinite fabric (off)", litegpu.ServeNetworkConfig{}},
		{"clos:pluggable:packet", litegpu.ServeNetworkConfig{
			Fabric: litegpu.FabricClos, Link: litegpu.LinkPluggable}},
		{"clos:pluggable:packet ×1e4 latency", litegpu.ServeNetworkConfig{
			Fabric: litegpu.FabricClos, Link: litegpu.LinkPluggable, LatencyScale: 1e4}},
		{"flat-circuit:cpo:circuit ×1e4 latency", litegpu.ServeNetworkConfig{
			Fabric: litegpu.FabricFlatCircuit, Link: litegpu.LinkCPO,
			Switch: litegpu.SwitchCircuit, LatencyScale: 1e4}},
	}

	fmt.Printf("equal-silicon pair on %s, %.1f req/s coding traffic, %d requests\n\n",
		model.Name, rate, len(reqs))
	fmt.Printf("%-38s %12s %12s %14s %10s\n",
		"fabric", "H100 TTFT", "Lite TTFT", "Lite transfer", "Lite net%")
	for _, f := range fabrics {
		h := h100
		h.Network = f.net
		l := lite
		l.Network = f.net
		var ms [2]litegpu.ServeMetrics
		for i, cfg := range []litegpu.ServeConfig{h, l} {
			cm, err := litegpu.ServeCluster(litegpu.ServeClusterConfig{Pools: []litegpu.ServePool{{Config: cfg}}}, reqs, run)
			if err != nil {
				log.Fatal(err)
			}
			ms[i] = cm.Pools[0].Metrics
		}
		hm, lm := ms[0], ms[1]
		fmt.Printf("%-38s %9.1f ms %9.1f ms %11.2f ms %9.1f%%\n",
			f.name, hm.TTFT.Mean*1e3, lm.TTFT.Mean*1e3,
			lm.TransferTime.Mean*1e3, lm.NetworkBoundFraction*100)
	}

	fmt.Println("\nThe H100 column never moves: its phase pools share a scale-up")
	fmt.Println("node, so the fabric is bypassed — the Lite column is the pure")
	fmt.Println("price of pushing KV handoff onto the datacenter network, and")
	fmt.Println("the last row is what co-packaged optics + circuit switching")
	fmt.Println("buys back.")
}
