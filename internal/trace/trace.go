// Package trace synthesizes LLM inference request streams with the
// statistical shape of production workloads: Poisson (or bursty
// Markov-modulated) arrivals and lognormal token-length distributions
// pinned to published medians — the paper's evaluation uses the 1500-token
// median prompt length of a production coding workload (Splitwise).
//
// This substitutes for the proprietary production traces the paper's
// references draw on; only the statistics the models consume (medians,
// tail ratios, arrival intensity) are represented.
package trace

import (
	"fmt"
	"math"

	"litegpu/internal/mathx"
	"litegpu/internal/units"
)

// Request is one inference request.
type Request struct {
	ID      int
	Arrival units.Seconds
	// PromptTokens is the prefill length.
	PromptTokens int
	// OutputTokens is the number of tokens to decode.
	OutputTokens int
	// PrefixTokens is how many leading prompt tokens belong to a shared
	// prefix (a system prompt, tool definitions, conversation history)
	// identified by PrefixID; zero means no shared prefix. Only the KV
	// prefix cache reads these fields — they change nothing elsewhere.
	PrefixTokens int
	// PrefixID names which shared prefix the request reuses; requests
	// with equal nonzero PrefixID share prefix content.
	PrefixID int
	// Class is the tenant class index the request belongs to (its
	// position in MultiGenerator.Classes); zero for single-tenant
	// streams. Only multi-tenant serving features read it.
	Class int
	// Priority is the request's scheduling priority, copied from its
	// tenant class (higher is more important); zero for single-tenant
	// streams. Only admission control reads it.
	Priority int
}

// Generator produces synthetic request streams. The zero value is not
// useful; use NewGenerator or fill all fields.
type Generator struct {
	// Rate is the mean arrival rate in requests per second.
	Rate float64

	// PromptMedian and PromptP99 pin the prompt-length lognormal.
	PromptMedian, PromptP99 float64

	// OutputMedian and OutputP99 pin the output-length lognormal.
	OutputMedian, OutputP99 float64

	// MaxTokens caps both lengths (context-window limit).
	MaxTokens int

	// BurstFactor > 1 enables a two-state Markov-modulated Poisson
	// process: bursts arrive at Rate·BurstFactor for BurstFraction of
	// the time.
	BurstFactor   float64
	BurstFraction float64
	// BurstDwell is the mean dwell time in each burst state.
	BurstDwell units.Seconds

	// PrefixTokens and PrefixGroups mark every request as reusing one of
	// PrefixGroups shared prefixes of PrefixTokens leading prompt tokens
	// (clamped to the request's own prompt length). Group assignment
	// cycles deterministically by request index and consumes no
	// randomness, so setting these fields never perturbs the arrival or
	// length streams. Zero disables prefix marking.
	PrefixTokens int
	PrefixGroups int

	// Seed makes the stream reproducible.
	Seed uint64
}

// CodingWorkload returns the generator calibrated to the production
// coding workload the paper cites: median prompt 1500 tokens (Splitwise's
// reported median), heavy-tailed up to the context limit, short outputs.
func CodingWorkload(rate float64, seed uint64) Generator {
	return Generator{
		Rate:         rate,
		PromptMedian: 1500, PromptP99: 7000,
		OutputMedian: 80, OutputP99: 500,
		MaxTokens: 8192,
		Seed:      seed,
	}
}

// ConversationWorkload returns a chat-style mix: shorter prompts, longer
// outputs (Splitwise's conversation class).
func ConversationWorkload(rate float64, seed uint64) Generator {
	return Generator{
		Rate:         rate,
		PromptMedian: 1020, PromptP99: 6000,
		OutputMedian: 205, OutputP99: 1000,
		MaxTokens: 8192,
		Seed:      seed,
	}
}

// AgentWorkload returns an agentic mix: long prompts that open with a
// shared system-prompt-plus-tool-definitions prefix reused across a
// small set of agent templates, and tool-call-sized outputs. The shared
// 1024-token prefix across 4 templates is what the KV prefix cache
// exploits; with prefix caching off the stream behaves like any other
// long-prompt workload.
func AgentWorkload(rate float64, seed uint64) Generator {
	return Generator{
		Rate:         rate,
		PromptMedian: 2000, PromptP99: 7500,
		OutputMedian: 150, OutputP99: 900,
		MaxTokens:    8192,
		PrefixTokens: 1024, PrefixGroups: 4,
		Seed: seed,
	}
}

// Validate reports the first parameter problem, or nil.
func (g Generator) Validate() error {
	switch {
	case g.Rate <= 0:
		return fmt.Errorf("trace: non-positive rate %v", g.Rate)
	case g.PromptMedian <= 0 || g.OutputMedian <= 0:
		return fmt.Errorf("trace: non-positive token medians")
	case g.MaxTokens <= 0:
		return fmt.Errorf("trace: non-positive MaxTokens")
	case mathx.ExactNe(g.BurstFactor, 0) && g.BurstFactor < 1:
		return fmt.Errorf("trace: BurstFactor must be ≥ 1 when set")
	case g.PrefixTokens < 0 || g.PrefixGroups < 0:
		return fmt.Errorf("trace: negative prefix parameters")
	}
	return nil
}

// BurstStats summarizes the Markov-modulated arrival process of one
// generated stream: how much of the horizon was spent bursting and how
// the state dwells distributed. For a non-bursty generator (BurstFactor
// ≤ 1) the whole horizon is one normal spell.
type BurstStats struct {
	// BurstTime and NormalTime partition the horizon between the two
	// modulation states, in seconds.
	BurstTime  float64
	NormalTime float64
	// BurstSpells and NormalSpells count state visits (the initial
	// normal spell included).
	BurstSpells  int
	NormalSpells int
}

// BurstFraction returns the observed share of time spent bursting.
func (b BurstStats) BurstFraction() float64 {
	total := b.BurstTime + b.NormalTime
	if total <= 0 {
		return 0
	}
	return b.BurstTime / total
}

// MeanBurstDwell returns the observed mean burst-spell length.
func (b BurstStats) MeanBurstDwell() float64 {
	if b.BurstSpells == 0 {
		return 0
	}
	return b.BurstTime / float64(b.BurstSpells)
}

// MeanNormalDwell returns the observed mean normal-spell length.
func (b BurstStats) MeanNormalDwell() float64 {
	if b.NormalSpells == 0 {
		return 0
	}
	return b.NormalTime / float64(b.NormalSpells)
}

// Generate produces all requests arriving within the horizon,
// materialized as a slice. For horizon×rate products in the millions,
// prefer Stream, which yields the identical request sequence one
// arrival at a time in constant memory.
func (g Generator) Generate(horizon units.Seconds) ([]Request, error) {
	reqs, _, err := g.GenerateWithStats(horizon)
	return reqs, err
}

// GenerateWithStats is Generate plus the burst-process accounting the
// calibration tests assert against. The request stream is byte-identical
// to Generate's: the accounting consumes no randomness.
func (g Generator) GenerateWithStats(horizon units.Seconds) ([]Request, BurstStats, error) {
	s, err := g.Stream(horizon)
	if err != nil {
		return nil, BurstStats{}, err
	}
	var reqs []Request
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	return reqs, s.Stats(), nil
}

// Stream is a lazy request generator: Next synthesizes arrivals one at
// a time, in nondecreasing arrival order, holding only O(1) state — no
// materialized trace. The sequence is byte-identical to what Generate
// returns for the same Generator and horizon (Generate is implemented
// on Stream), so simulations can switch between materialized and
// streaming traces without perturbing a single metric.
//
// A Stream is single-use and not safe for concurrent use; derive one
// per simulation.
type Stream struct {
	g        Generator
	rng      *mathx.RNG
	lenRNG   *mathx.RNG
	burstRNG *mathx.RNG

	pMu, pSigma float64
	oMu, oSigma float64

	h         float64
	t         float64
	n         int
	bursting  bool
	stateLeft float64
	done      bool
	stats     BurstStats
}

// Stream validates the generator and returns the lazy arrival iterator
// for all requests arriving within the horizon.
func (g Generator) Stream(horizon units.Seconds) (*Stream, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(g.Seed)
	s := &Stream{
		g:        g,
		rng:      rng,
		lenRNG:   rng.Split(),
		burstRNG: rng.Split(),
		h:        float64(horizon),
		stats:    BurstStats{NormalSpells: 1},
	}
	s.pMu, s.pSigma = mathx.LogNormalParams(g.PromptMedian, g.PromptP99)
	s.oMu, s.oSigma = mathx.LogNormalParams(g.OutputMedian, g.OutputP99)
	s.stateLeft = g.dwell(s.burstRNG, false)
	return s, nil
}

// dwellTime credits elapsed time to the state it was spent in,
// clipping at the horizon so the partition sums to exactly h.
func (s *Stream) dwellTime(from, span float64, inBurst bool) {
	if from >= s.h {
		return
	}
	if from+span > s.h {
		span = s.h - from
	}
	if inBurst {
		s.stats.BurstTime += span
	} else {
		s.stats.NormalTime += span
	}
}

// Next returns the next arrival, or ok=false once the horizon is
// exhausted (every later call keeps returning false).
func (s *Stream) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	g := s.g
	rate := g.Rate
	if g.BurstFactor > 1 && s.bursting {
		rate *= g.BurstFactor
	}
	dt := s.rng.Exponential(rate)
	// Advance the burst state across the gap.
	if g.BurstFactor > 1 {
		for dt >= s.stateLeft {
			dt -= s.stateLeft
			s.dwellTime(s.t, s.stateLeft, s.bursting)
			s.t += s.stateLeft
			s.bursting = !s.bursting
			if s.t < s.h {
				if s.bursting {
					s.stats.BurstSpells++
				} else {
					s.stats.NormalSpells++
				}
			}
			s.stateLeft = g.dwell(s.burstRNG, s.bursting)
			rate = g.Rate
			if s.bursting {
				rate *= g.BurstFactor
			}
			// Resample the remaining gap at the new rate.
			dt = s.rng.Exponential(rate)
		}
		s.stateLeft -= dt
	}
	s.dwellTime(s.t, dt, s.bursting)
	s.t += dt
	if s.t > s.h {
		s.done = true
		return Request{}, false
	}
	r := Request{
		ID:           s.n,
		Arrival:      units.Seconds(s.t),
		PromptTokens: g.sampleLen(s.lenRNG, s.pMu, s.pSigma),
		OutputTokens: g.sampleLen(s.lenRNG, s.oMu, s.oSigma),
	}
	if g.PrefixGroups > 0 && g.PrefixTokens > 0 {
		// Derived from the request index, not the RNGs: streams with and
		// without prefix marking are otherwise byte-identical.
		r.PrefixID = 1 + s.n%g.PrefixGroups
		r.PrefixTokens = min(g.PrefixTokens, r.PromptTokens)
	}
	s.n++
	return r, true
}

// Stats returns the burst-process accounting. It is complete once Next
// has reported ok=false; before exhaustion it covers the stream so far.
func (s *Stream) Stats() BurstStats {
	if s.g.BurstFactor <= 1 {
		// Non-bursty streams are one normal spell; the incremental
		// accounting is only meaningful for the Markov-modulated case.
		return BurstStats{NormalSpells: 1, NormalTime: math.Min(s.t, s.h)}
	}
	return s.stats
}

func (g Generator) dwell(rng *mathx.RNG, bursting bool) float64 {
	dwell := float64(g.BurstDwell)
	if dwell <= 0 {
		dwell = 30
	}
	frac := g.BurstFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.2
	}
	mean := dwell * (1 - frac)
	if bursting {
		mean = dwell * frac
	}
	return rng.Exponential(1 / mean)
}

func (g Generator) sampleLen(rng *mathx.RNG, mu, sigma float64) int {
	v := rng.LogNormal(mu, sigma)
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	if n > g.MaxTokens {
		n = g.MaxTokens
	}
	return n
}

// Stats summarizes a generated stream for calibration checks.
type Stats struct {
	Requests     int
	MeanRate     float64
	PromptMedian float64
	PromptP99    float64
	OutputMedian float64
	TotalPrompt  int
	TotalOutput  int
}

// Summarize computes stream statistics over the given horizon.
func Summarize(reqs []Request, horizon units.Seconds) Stats {
	s := Stats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return s
	}
	prompts := make([]float64, len(reqs))
	outputs := make([]float64, len(reqs))
	for i, r := range reqs {
		prompts[i] = float64(r.PromptTokens)
		outputs[i] = float64(r.OutputTokens)
		s.TotalPrompt += r.PromptTokens
		s.TotalOutput += r.OutputTokens
	}
	if horizon > 0 {
		s.MeanRate = float64(len(reqs)) / float64(horizon)
	}
	ps := mathx.Summarize(prompts)
	s.PromptMedian, s.PromptP99 = ps.P50, ps.P99
	s.OutputMedian = mathx.Summarize(outputs).P50
	return s
}
