package serve

import (
	"fmt"
	"math"
	"sort"

	"litegpu/internal/failure"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/netsim"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Same-timestamp event ordering, reproducing the phased scan of the
// pre-sim serve loop: all arrivals, then prefill completions in engine
// order, then decode completions in engine order, then failure
// machinery, then exactly one dispatch pass. Within each band an
// instance's offset is poolIndexBase(pool)+instance, so pool 0's
// engines order before pool 1's; ClusterConfig validation caps pools
// at maxPoolInstances instances to keep offsets inside their band.
// Colocated schedulers use the prefill band for prefill-only steps and
// the decode band for steps that emit tokens.
const (
	prioArrival  = 0
	prioPrefill  = 1 << 20 // + global prefill engine index
	prioDecode   = 2 << 20 // + global decode engine index
	prioFailure  = 3 << 20 // + global instance index
	prioTransfer = 4 << 20 // + destination instance index: fabric deliveries
	prioClient   = 5 << 20 // + pool index base: client deadlines/retries; +1 for autoscale ticks
	prioDispatch = 1 << 30
	// prioProbe orders observability probe ticks after the dispatch pass
	// at their timestamp, so probes sample settled post-dispatch state.
	// Probe events are read-only and exist only with an observer
	// attached; the engine's insertion-seq tiebreak is monotonic, so the
	// extra events never reorder simulation events at other priorities.
	prioProbe = prioDispatch + 1
)

// activeReq is one request's live state as it moves through a
// scheduler. The static policy only uses the decode-phase fields;
// colocated policies also track chunked prefill progress.
type activeReq struct {
	req       trace.Request
	remaining int
	decodeAt  float64 // decode admission time (first admission; survives requeues)
	firstAt   float64 // first-token emission time
	admitted  bool
	emitted   bool

	// promptLeft is the prompt-token count not yet prefilled; colocated
	// schedulers decrement it as chunks (or full passes) complete, and
	// record the TTFT sample exactly once when it reaches zero. Chunk
	// progress is applied only at step completion, so a failure
	// mid-chunk loses the in-flight chunk but never double-counts or
	// skips tokens across requeues.
	promptLeft int
	ttftDone   bool

	// kvSeq is the request's sequence handle in its decode engine's
	// paged KV allocator; -1 when it holds no blocks (KV off, queued,
	// preempted, or its allocator was reset by an instance failure).
	kvSeq kv.SeqID
}

// instanceState is the failure-facing side of an engine: every serving
// instance — a phase-split prefill/decode engine or a colocated one —
// is a unit that can be down, waiting for a spare, or serving.
type instanceState struct {
	up      bool
	downAt  float64
	downSec float64 // accumulated instance downtime, seconds
	failRNG *mathx.RNG
	rate    float64 // instance failure rate per simulated second
	prio    int     // unique per-instance offset added to a priority band
	doneEv  sim.EventID

	// Autoscale state (all false/zero with Config.Autoscale off): a
	// parked instance draws no dispatch; a warming one is mid cold
	// start; a draining one finishes in-flight work then parks itself.
	// parkedAt/parkedSec integrate parked time for MeanLiveInstances.
	parked    bool
	warming   bool
	draining  bool
	parkedAt  float64
	parkedSec float64

	// slow is the instance's persistent step-time stretch factor drawn
	// from Config.Straggler; 0 means nominal (straggler modeling off).
	slow float64
}

// activeChunk is the allocation unit of the activeReq freelist: live
// request state is recycled through per-pool free lists, so at steady
// state the in-flight working set cycles through a fixed arena instead
// of allocating per request.
const activeChunk = 64

// ingressBytesPerToken is the wire size of one routed prompt token
// (an int32 token id): what a multi-pool cluster's router pushes over
// the fabric to hand an arrival to its pool. Tiny next to KV bytes,
// but it charges the path latency every request must pay.
const ingressBytesPerToken = 4

// Kinds of fabric transfer a pool can have in flight.
const (
	xferKV      int8 = iota // KV-cache handoff: prefill → decode instance
	xferIngress             // routed arrival: router → pool instance
	xferSwap                // preempted KV returning to decode: swap round-trip or recompute handoff (no TTFT stamp)
)

// xferRec is one in-flight fabric transfer's serving-side state,
// recycled through a per-pool index arena (the fabric's own flow state
// lives in netsim). src/dst are pool-local instance ids for KV
// handoffs (-1 for ingress, which is not tied to an instance).
type xferRec struct {
	kind     int8
	src, dst int32
	a        *activeReq    // KV payload (nil for ingress)
	req      trace.Request // ingress payload
	tid      netsim.TransferID
	start    float64
	bytes    float64
}

// poolSim is one serving pool's live state: its scheduler, its spare
// shelf, and its metric accumulators. The scheduling discipline itself
// lives behind the scheduler interface.
type poolSim struct {
	name   string
	idx    int // position in clusterSim.pools, for handler args
	cfg    Config
	spares int
	sched  scheduler

	// afrPerGPU and flopsPerGPU weight this pool's instances in
	// cluster-total reliability aggregates: failure odds scale with
	// per-GPU AFR, capacity with per-GPU compute. Within a pool both
	// are uniform, so per-pool metrics never see them.
	afrPerGPU   float64
	flopsPerGPU float64

	// Spare shelf and the FIFO of down instances waiting for one.
	spareFree int
	waiting   []int

	// freeReqs recycles activeReq state: completed (or dropped)
	// requests return here and are reused for later arrivals.
	freeReqs []*activeReq

	// Fabric-facing state, used only when the cluster runs a fabric:
	// epBase is the pool's first endpoint index (the cluster's router
	// is endpoint 0), nodeOf maps instances to scale-up nodes, and
	// kvPerToken is the model's full KV-cache bytes per prompt token
	// at the pool's precision. In-flight transfers recycle through the
	// xfers index arena; liveXfers lists the KV handoffs in flight,
	// scanned when an instance dies.
	epBase     int
	nodeOf     []int32
	kvPerToken float64
	ingressRR  int
	xfers      []xferRec
	freeXferIx []int32
	liveXfers  []int32

	// KV-memory accumulators (all zero with Config.KV disabled).
	// kvBlockTokens caches the pool's block granularity so fabric
	// transfer sizing can round payloads up to whole blocks; kvInUse /
	// kvBlockSec / kvLastT implement the time-weighted occupancy
	// integral across the pool's allocators.
	kvBlockTokens int
	kvInUse       int
	kvPeak        int
	kvBlockSec    float64
	kvLastT       float64
	kvHits        int
	kvLookups     int
	kvPreempt     int
	kvRecompute   int

	// Closed-loop client state (all empty with Config.Client timeouts
	// off). trackArena/freeTracks recycle clientTrack slots; tracks maps
	// a live attempt's request ID to its slot (invariant: present ⇔
	// open && deadline armed); cancelled maps a timed-out request's ID
	// to its tombstone slot until a scheduler choke point reclaims the
	// in-queue copy. retrySeq hands out fresh negative IDs to
	// resubmissions so they never collide with trace IDs. eng/prioBase
	// mirror the cluster's engine and the pool's priority offset so
	// pool-level settle paths can cancel deadline events; deadlineQ is
	// the pool's FIFO calendar queue for those deadlines.
	eng        *sim.Engine
	deadlineQ  sim.Queue
	prioBase   int
	clientOn   bool
	classesOn  bool
	trackArena []clientTrack
	freeTracks []int32
	tracks     map[int]int32
	cancelled  map[int]int32
	retrySeq   int
	clientRNG  *mathx.RNG
	classes    []classAcc

	// Autoscale bounds: the scheduler's scalable instance-id range and
	// the always-on floor.
	scaleOn  bool
	scaleLo  int
	scaleHi  int
	scaleMin int

	// rec is the cluster's observer, mirrored per pool so hook sites
	// reach it without chasing the clusterSim; nil means observability
	// off, and every hook is guarded on that nil.
	rec *obs.Recorder

	m          Metrics
	goodTokens int
	// usefulTokens counts goodTokens whose request completed within its
	// class's client deadline (all of them when no deadline is set).
	usefulTokens int
	ttfts        []float64
	tbts         []float64
	e2es         []float64
	xferT        []float64
	xferB        []float64
	netSec       float64
	ttftOK       int
	tbtOK        int
}

// newXfer returns a fresh transfer-record index from the pool's arena.
// Indices, not pointers, cross the event boundary (they ride the
// ScheduleCall arg word), so arena growth never invalidates anything.
//
//litegpu:hotpath
func (p *poolSim) newXfer() int32 {
	if n := len(p.freeXferIx); n > 0 {
		idx := p.freeXferIx[n-1]
		p.freeXferIx = p.freeXferIx[:n-1]
		return idx
	}
	p.xfers = append(p.xfers, xferRec{})
	return int32(len(p.xfers) - 1)
}

// freeXfer recycles a transfer record, clearing it so the arena does
// not retain the activeReq.
//
//litegpu:hotpath
func (p *poolSim) freeXfer(idx int32) {
	p.xfers[idx] = xferRec{}
	p.freeXferIx = append(p.freeXferIx, idx)
}

// dropLive removes idx from the pool's live KV-handoff list (order
// preserving; a miss is a no-op, which is how ingress records — never
// listed — share the delivery path).
//
//litegpu:hotpath
func (p *poolSim) dropLive(idx int32) {
	l := p.liveXfers
	w := 0
	for _, v := range l {
		if v != idx {
			l[w] = v
			w++
		}
	}
	p.liveXfers = l[:w]
}

// newActive returns a zeroed activeReq for r from the pool's free list,
// topping the list up with a fresh arena chunk when it runs dry.
//
//litegpu:hotpath
func (p *poolSim) newActive(r trace.Request) *activeReq {
	if len(p.freeReqs) == 0 {
		chunk := make([]activeReq, activeChunk) //litegpu:alloc-ok arena refill: one chunk per activeChunk requests, amortized-zero per the pins
		for i := range chunk {
			p.freeReqs = append(p.freeReqs, &chunk[i])
		}
	}
	a := p.freeReqs[len(p.freeReqs)-1]
	p.freeReqs = p.freeReqs[:len(p.freeReqs)-1]
	*a = activeReq{req: r, remaining: r.OutputTokens, kvSeq: -1}
	return a
}

// freeActive returns a no-longer-referenced activeReq to the free list.
// Callers guarantee no queue, batch, or engine still points at it.
//
//litegpu:hotpath
func (p *poolSim) freeActive(a *activeReq) {
	p.freeReqs = append(p.freeReqs, a)
}

// kvTokens is the token count a sequence's KV must cover right now:
// the prompt plus every token decoded so far.
//
//litegpu:hotpath
func kvTokens(a *activeReq) int {
	return a.req.PromptTokens + (a.req.OutputTokens - a.remaining)
}

// kvAccount advances the pool's time-weighted block-occupancy integral
// to now and applies a blocks-in-use delta.
//
//litegpu:hotpath
func (p *poolSim) kvAccount(now float64, delta int) {
	p.kvBlockSec += float64(p.kvInUse) * (now - p.kvLastT)
	p.kvLastT = now
	p.kvInUse += delta
	if p.kvInUse > p.kvPeak {
		p.kvPeak = p.kvInUse
	}
}

// kvAdmit claims KV blocks for a's current footprint from al, consulting
// the prefix cache when a declares a shared prefix. It reports whether
// the sequence fits; on failure nothing is claimed and the caller leaves
// a at the head of its queue. Hit/lookup statistics are recorded only
// for admissions that succeed, so a blocked head-of-line request retried
// every dispatch does not inflate the ratio.
//
//litegpu:hotpath
func (p *poolSim) kvAdmit(al *kv.Allocator, a *activeReq, now float64) bool {
	if a.kvSeq >= 0 {
		return true
	}
	var key uint64
	ptoks := 0
	if a.req.PrefixTokens > 0 && a.req.PrefixID != 0 {
		key = uint64(a.req.PrefixID)
		ptoks = a.req.PrefixTokens
	}
	before := al.InUse()
	id, hits, lookups, ok := al.Alloc(kvTokens(a), key, ptoks)
	if !ok {
		return false
	}
	p.kvHits += hits
	p.kvLookups += lookups
	a.kvSeq = id
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
	}
	if p.rec != nil {
		p.rec.Request(obs.KVAlloc, now, int32(p.idx), -1, int64(a.req.ID), float64(p.kvInUse))
	}
	return true
}

// kvGrow extends a's sequence by one token, claiming a fresh block at
// block boundaries. It reports whether the token fits.
//
//litegpu:hotpath
func (p *poolSim) kvGrow(al *kv.Allocator, a *activeReq, now float64) bool {
	before := al.InUse()
	if !al.Grow(a.kvSeq) {
		return false
	}
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
		if p.rec != nil {
			p.rec.Request(obs.KVGrow, now, int32(p.idx), -1, int64(a.req.ID), float64(p.kvInUse))
		}
	}
	return true
}

// kvRelease returns a's blocks to al (shared prefix blocks merely drop
// a reference). A handle-less request is a no-op, so callers free
// unconditionally on completion, preemption, and failure paths.
//
//litegpu:hotpath
func (p *poolSim) kvRelease(al *kv.Allocator, a *activeReq, now float64) {
	if a.kvSeq < 0 {
		return
	}
	before := al.InUse()
	al.Free(a.kvSeq)
	a.kvSeq = -1
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
	}
	if p.rec != nil {
		p.rec.Request(obs.KVRelease, now, int32(p.idx), -1, int64(a.req.ID), float64(p.kvInUse))
	}
}

// kvXferBytes sizes a KV payload of the given token count on the wire.
// With paged KV enabled whole blocks cross the fabric, so the count
// rounds up to the block granularity; with KV off it is the exact
// per-token footprint (the historical PR-5 sizing).
//
//litegpu:hotpath
func (p *poolSim) kvXferBytes(tokens int) float64 {
	if p.kvBlockTokens > 0 {
		blocks := (tokens + p.kvBlockTokens - 1) / p.kvBlockTokens
		tokens = blocks * p.kvBlockTokens
	}
	return p.kvPerToken * float64(tokens)
}

// recordTTFT appends one time-to-first-token sample and its SLO checks
// (pool-wide, and per class against the class's own SLO when class
// accounting is on).
//
//litegpu:hotpath
func (p *poolSim) recordTTFT(ttft float64, class int) {
	p.ttfts = append(p.ttfts, ttft)
	if units.Seconds(ttft) <= pickSLO(p.cfg.Opts.TTFTLimit, 1.0) {
		p.ttftOK++
	}
	if p.classesOn && units.Seconds(ttft) <= p.classSLO(class) {
		p.classAt(class).ttftOK++
	}
}

// emitToken advances one active generation by a token at `now`,
// recording completion metrics when the request finishes. It reports
// whether the request is done (and should leave the batch).
//
//litegpu:hotpath
func (p *poolSim) emitToken(a *activeReq, now float64) bool {
	a.remaining--
	p.m.TokensGenerated++
	if !a.emitted {
		a.emitted = true
		a.firstAt = now
		if p.rec != nil {
			p.rec.Request(obs.FirstToken, now, int32(p.idx), -1, int64(a.req.ID), now-float64(a.req.Arrival))
		}
	}
	if a.remaining > 0 {
		return false
	}
	p.m.Completed++
	p.goodTokens += a.req.OutputTokens
	if d := p.behavior(a.req.Class).Timeout; d <= 0 || units.Seconds(now-float64(a.req.Arrival)) <= d {
		p.usefulTokens += a.req.OutputTokens
	}
	if p.classesOn {
		acc := p.classAt(a.req.Class)
		acc.completed++
		acc.goodTokens += a.req.OutputTokens
	}
	p.clientSettle(a.req.ID)
	// Time-between-tokens is defined over the gaps between
	// consecutive tokens: n tokens have n-1 intervals spanning first
	// token → last token. A single-token output has no inter-token
	// gap, so its one step duration stands in for the interval.
	tbt := now - a.decodeAt
	if a.req.OutputTokens > 1 {
		tbt = (now - a.firstAt) / float64(a.req.OutputTokens-1)
	}
	p.tbts = append(p.tbts, tbt)
	if units.Seconds(tbt) <= pickSLO(p.cfg.Opts.TBTLimit, 0.050) {
		p.tbtOK++
	}
	p.e2es = append(p.e2es, now-float64(a.req.Arrival))
	if p.rec != nil {
		p.rec.Request(obs.Complete, now, int32(p.idx), -1, int64(a.req.ID), now-float64(a.req.Arrival))
	}
	return true
}

// RequestSource yields a request stream in nondecreasing arrival order,
// one request at a time. trace.Stream implements it for synthetic
// workloads generated on demand; materialized []trace.Request slices
// are adapted internally. The simulator holds only the in-flight
// working set, so a million-request horizon needs O(in-flight) memory,
// not O(trace).
type RequestSource interface {
	Next() (trace.Request, bool)
}

// sliceSource adapts a sorted materialized trace to RequestSource.
type sliceSource struct {
	reqs []trace.Request
	i    int
}

func (s *sliceSource) Next() (trace.Request, bool) {
	if s.i >= len(s.reqs) {
		return trace.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

type clusterSim struct {
	eng   *sim.Engine
	cc    ClusterConfig
	pools []*poolSim
	h     float64

	rrNext          int
	dispatchPending bool

	// dispatchQ and retryQ are the calendar queues of the two bulk event
	// classes that stay off the main heap: dispatch passes, always
	// booked at now, ride a FIFO ring; client backoff retries, jittered
	// and so unordered, get their own heap. Per-pool deadline rings live
	// on poolSim. Queue routing never changes firing order (see sim).
	dispatchQ sim.Queue
	retryQ    sim.Queue

	// Arrival chain state: the one pending arrival pulled from src but
	// not yet fired. Handlers are bound once here so the hot path
	// schedules without allocating closures; per-event context rides in
	// the ScheduleCall arg word (pool index << 32 | instance id).
	src     RequestSource
	nextReq trace.Request

	arriveH   sim.Handler
	dispatchH sim.Handler
	failH     sim.Handler
	repairH   sim.Handler
	recoverH  sim.Handler
	xferH     sim.Handler
	deadlineH sim.Handler
	retryH    sim.Handler
	scaleH    sim.Handler
	warmH     sim.Handler
	probeH    sim.Handler

	// rec is the attached observer (nil = observability off).
	rec *obs.Recorder

	failMTTR     float64
	failRecovery float64

	// net/fab are the resolved cluster fabric; fab is nil when the
	// network is off, and every fabric-charging site gates on that.
	net NetworkConfig
	fab *netsim.Fabric

	// snapOnFail arms the planner's fork hook: the first failure event
	// to fire captures the whole simulation state into snap (see
	// snapshot.go) before any spare-shelf decision is made. Everything
	// before that moment is byte-identical at any spare count — the
	// spare shelf is only ever read inside failInstance — so the
	// availability leg can fork from the snapshot instead of replaying
	// the run from t=0.
	snapOnFail bool
	snap       *clusterSnap
}

// packArg encodes a (pool, instance) pair into a ScheduleCall arg word.
func packArg(pool, id int) uint64 { return uint64(pool)<<32 | uint64(uint32(id)) }

func unpackArg(arg uint64) (pool, id int) { return int(arg >> 32), int(uint32(arg)) }

func newClusterSim(cc ClusterConfig, horizon float64) (*clusterSim, error) {
	return newClusterSimAt(cc, horizon, 0, 0)
}

// newClusterSimAt builds a simulation of cc.Pools that behaves as if
// those pools sat at global pool index poolBase (and global instance
// index instBase) of a larger cluster: event priorities and
// per-instance failure seeds use the global indices, so a shard
// simulating pools [poolBase, poolBase+len(Pools)) evolves its pools
// byte-identically to the sequential whole-cluster run. The sequential
// path is the poolBase = instBase = 0 case.
func newClusterSimAt(cc ClusterConfig, horizon float64, poolBase, instBase int) (*clusterSim, error) {
	s := &clusterSim{
		eng: sim.New(cc.Failures.Seed),
		cc:  cc,
		h:   horizon,
	}
	s.arriveH = s.arrive
	s.dispatchH = s.dispatch
	s.failH = s.onFail
	s.repairH = s.onRepair
	s.recoverH = s.onRecover
	s.xferH = s.onXfer
	s.deadlineH = s.onDeadline
	s.retryH = s.onRetry
	s.scaleH = s.onScale
	s.warmH = s.onWarm
	s.probeH = s.onProbe
	s.dispatchQ = s.eng.NewQueue(sim.FIFOQueue)
	s.rec = cc.Observer
	fp := cc.Failures.params()
	scale := cc.Failures.timeScale()
	s.failMTTR = float64(fp.MTTR)
	s.failRecovery = float64(fp.RecoveryTime)

	globalInstance := instBase
	for pi, pool := range cc.Pools {
		cfg := pool.Config
		name := pool.Name
		if name == "" {
			name = cfg.GPU.Name
		}
		spares := pool.Spares
		if spares <= 0 {
			spares = cc.Failures.Spares
		}
		p := &poolSim{
			name:        name,
			idx:         pi,
			cfg:         cfg,
			spares:      spares,
			spareFree:   spares,
			afrPerGPU:   fp.AFR(cfg.GPU),
			flopsPerGPU: float64(cfg.GPU.FLOPS),
		}
		if cfg.KV.Enabled() {
			p.kvBlockTokens = cfg.KV.BlockTokensOrDefault()
		}
		p.eng = s.eng
		p.prioBase = poolIndexBase(poolBase + pi)
		p.rec = s.rec
		if s.rec != nil {
			s.rec.SetPoolName(pi, name)
		}
		if cfg.Client.enabled() {
			p.clientOn = true
			p.deadlineQ = s.eng.NewQueue(sim.FIFOQueue)
			if s.retryQ == sim.MainQueue {
				s.retryQ = s.eng.NewQueue(sim.HeapQueue)
			}
			p.tracks = make(map[int]int32)
			p.cancelled = make(map[int]int32)
			p.clientRNG = mathx.NewRNG(mathx.DeriveSeed(cfg.Client.Seed, uint64(poolBase+pi)))
		}
		p.classesOn = len(cfg.Client.Classes) > 0 || cfg.Admission.Policy != AdmitAll
		var err error
		if cfg.Scheduler.Colocated() {
			p.sched, err = newColocSched(s, p)
		} else {
			p.sched, err = newStaticSched(s, p)
		}
		if err != nil {
			return nil, err
		}
		perGPURate := fp.AFR(cfg.GPU) / float64(failure.Year) * scale
		for id := 0; id < p.sched.numInstances(); id++ {
			st := p.sched.state(id)
			st.up = true
			st.prio = poolIndexBase(poolBase+pi) + id
			if cfg.Straggler.Enabled() {
				// One persistent draw per global instance index, so shards
				// and the sequential run see identical slow sets.
				st.slow = cfg.Straggler.Jitter.Draw(
					mathx.NewRNG(mathx.DeriveSeed(cfg.Straggler.Seed, uint64(globalInstance))))
			}
			s.initFailure(st, perGPURate*float64(p.sched.gpus(id)), globalInstance)
			globalInstance++
		}
		if cfg.Autoscale.Enabled {
			lo, hi := p.sched.scalable()
			p.scaleOn = true
			p.scaleLo, p.scaleHi = lo, hi
			p.scaleMin = cfg.Autoscale.minInstances()
			if p.scaleMin > hi-lo {
				p.scaleMin = hi - lo
			}
			// Instances above the floor start parked; the control loop
			// unparks them under load.
			for id := lo + p.scaleMin; id < hi; id++ {
				st := p.sched.state(id)
				st.parked = true
				st.parkedAt = 0
			}
		}
		s.pools = append(s.pools, p)
	}
	if err := s.buildFabric(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildFabric constructs the cluster's netsim fabric when a network
// config is enabled: one endpoint per instance plus endpoint 0 for the
// router, instances packed into scale-up nodes in global order, and
// path latency taken from the configured topology built at the
// cluster's full GPU count (the physical fabric scale) times the
// stress multiplier.
func (s *clusterSim) buildFabric() error {
	s.net = s.cc.resolvedNetwork()
	if !s.net.Enabled() {
		return nil
	}
	ports := []float64{0} // router endpoint, sized below
	nodeGPUs := s.net.nodeGPUs()
	nodeID, nodeUsed := 0, 0
	totalGPUs := 0
	var routerBW float64
	for _, p := range s.pools {
		p.epBase = len(ports)
		n := p.sched.numInstances()
		p.nodeOf = make([]int32, n)
		for id := 0; id < n; id++ {
			g := p.sched.gpus(id)
			if nodeUsed > 0 && nodeUsed+g > nodeGPUs {
				nodeID, nodeUsed = nodeID+1, 0
			}
			p.nodeOf[id] = int32(nodeID)
			nodeUsed += g
			if nodeUsed >= nodeGPUs {
				nodeID, nodeUsed = nodeID+1, 0
			}
			bw := s.net.instancePortBW(p.cfg.GPU, g)
			ports = append(ports, bw)
			routerBW += bw
		}
		p.kvPerToken = float64(p.cfg.Model.KVBytesPerToken(p.cfg.Opts.EffectivePrecision()))
		totalGPUs += p.sched.totalGPUs()
	}
	// The router injects token ids, not KV caches; give it the
	// aggregate attachment so it is never the modeled bottleneck.
	ports[0] = routerBW
	topo := s.net.Topology(totalGPUs)
	params := netsim.Params{
		Ports:       ports,
		PathLatency: float64(topo.PathLatency()) * s.net.latencyScale(),
		Circuit:     s.net.circuit(),
	}
	if params.Circuit {
		// Reconfiguration is a switching-device property, deliberately
		// NOT scaled by LatencyScale — the stress knob models path and
		// software-stack latency, which is exactly what circuit
		// switching's low-latency story is judged against.
		params.ReconfigTime = float64(topo.Switch.ReconfigTime)
	}
	fab, err := netsim.New(s.eng, params)
	if err != nil {
		return err
	}
	s.fab = fab
	return nil
}

// onXfer fires one fabric delivery: record the transfer sample, then
// hand the payload to its pool — a KV handoff joins the decode queue
// (this is the moment the request's first token can ship, so TTFT is
// stamped here), a routed arrival joins the pool's admission queue.
//
//litegpu:hotpath
func (s *clusterSim) onXfer(now float64, arg uint64) {
	pi, idx := unpackArg(arg)
	p := s.pools[pi]
	rec := &p.xfers[idx]
	dur := now - rec.start
	p.xferT = append(p.xferT, dur)
	p.xferB = append(p.xferB, rec.bytes)
	p.netSec += dur
	p.m.NetTransfers++
	if p.rec != nil {
		id := int64(rec.req.ID)
		if rec.a != nil {
			id = int64(rec.a.req.ID)
		}
		p.rec.Request(obs.XferDeliver, now, int32(p.idx), rec.dst, id, dur)
	}
	switch rec.kind {
	case xferKV:
		a := rec.a
		if p.clientOn && p.isCancelled(a.req.ID) {
			// The client timed out while the KV handoff was in flight
			// and the transfer beat the eager cancel scan (or the
			// tombstone was laid after dispatch): drop the delivery.
			p.settleCancelled(a.req.ID, a)
			break
		}
		p.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
		p.sched.deliverKV(a, now)
	case xferSwap:
		// A preempted sequence's KV is back: no TTFT stamp (its first
		// token shipped before preemption), straight to the decode path.
		p.sched.swapReturn(rec.a, now)
	default:
		if p.clientOn && p.isCancelled(rec.req.ID) {
			// Routed arrival whose client gave up mid-ingress: the copy
			// rode the transfer by value, so the tombstone settles here.
			p.settleCancelled(rec.req.ID, nil)
			break
		}
		if p.rec != nil {
			p.rec.Request(obs.Enqueue, now, int32(p.idx), -1, int64(rec.req.ID), 0)
		}
		p.sched.enqueue(rec.req)
	}
	p.dropLive(int32(idx))
	p.freeXfer(int32(idx))
	s.requestDispatch(now)
}

// startIngress charges a routed arrival's trip from the router to its
// pool: prompt token ids over the fabric to the pool's next instance
// endpoint (round-robin — the target only shapes contention; delivery
// lands in the pool's shared queue).
//
//litegpu:hotpath
func (s *clusterSim) startIngress(p *poolSim, r trace.Request, now float64) {
	n := p.sched.numInstances()
	inst := p.ingressRR % n
	p.ingressRR++
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferIngress, src: -1, dst: -1,
		req: r, start: now,
		bytes: float64(r.PromptTokens) * ingressBytesPerToken,
	}
	rec.tid = s.fab.Start(0, p.epBase+inst, rec.bytes,
		prioTransfer+p.sched.state(inst).prio, s.xferH, packArg(p.idx, int(idx)))
	if p.rec != nil {
		p.rec.Request(obs.XferStart, now, int32(p.idx), -1, int64(r.ID), rec.bytes)
	}
}

// poolIndexBase spaces engine priorities so that pool 0's engines
// order before pool 1's within each band. Validation caps instances per
// pool at maxPoolInstances, so offsets never collide across pools or
// spill into the next band.
func poolIndexBase(pool int) int { return pool * maxPoolInstances }

func (s *clusterSim) initFailure(st *instanceState, rate float64, globalIdx int) {
	if !s.cc.Failures.Enabled || rate <= 0 {
		return
	}
	st.failRNG = mathx.NewRNG(mathx.DeriveSeed(s.cc.Failures.Seed, uint64(globalIdx)))
	st.rate = rate
}

// sortedByArrival reports whether the trace is already in nondecreasing
// arrival order — true for every stream trace.Generate produces, which
// lets run share the caller's slice instead of copying and re-sorting
// it per simulation.
func sortedByArrival(reqs []trace.Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
	}
	return true
}

// run executes the simulation over a materialized request stream and
// assembles the metrics. The trace is shared, not copied: an already
// sorted slice (the common case — generators emit arrivals in time
// order) is used as-is across all pools and, in the planner, across
// every candidate simulation.
func (s *clusterSim) run(reqs []trace.Request) ClusterMetrics {
	sorted := reqs
	if !sortedByArrival(reqs) {
		// Identical sort to the pre-sim loop (including tie order).
		sorted = append([]trace.Request(nil), reqs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	}
	// The trace length is known up front: size each pool's latency
	// sample buffers once so recording never reallocates mid-run.
	if len(s.pools) == 1 {
		p := s.pools[0]
		n := len(sorted)
		p.ttfts = make([]float64, 0, n)
		p.tbts = make([]float64, 0, n)
		p.e2es = make([]float64, 0, n)
	}
	return s.runFrom(&sliceSource{reqs: sorted})
}

// runFrom executes the simulation pulling arrivals from src on demand
// and assembles the metrics. Only the in-flight working set is held in
// memory.
func (s *clusterSim) runFrom(src RequestSource) ClusterMetrics {
	s.start(src)
	s.eng.Run(s.h)
	return s.assemble()
}

// start primes the calendar: the first arrival pulled from src and
// every instance's first failure. A nil src means this simulation
// receives no arrivals of its own — the sharded runner's JSQ
// controller injects arrivals from outside, and a shard only books its
// failure processes here.
func (s *clusterSim) start(src RequestSource) {
	s.src = src
	if src != nil {
		if r, ok := src.Next(); ok {
			s.scheduleArrival(r)
		}
	}

	// Failure processes.
	if s.cc.Failures.Enabled {
		for _, p := range s.pools {
			for id := 0; id < p.sched.numInstances(); id++ {
				s.scheduleFailure(p, id, 0)
			}
		}
	}

	// Autoscale control loops: one periodic tick per scaling pool.
	// Booked here rather than at construction so shards (which call
	// start too) run their own pools' loops.
	for _, p := range s.pools {
		if p.scaleOn {
			s.eng.ScheduleCall(p.cfg.Autoscale.interval(),
				prioClient+p.prioBase+1, s.scaleH, packArg(p.idx, 0))
		}
	}

	// Observability probe ticks: one cluster-wide periodic sampler,
	// read-only, firing after the dispatch pass at its timestamp.
	if s.rec != nil {
		if iv := s.rec.ProbeInterval(); iv > 0 && iv <= s.h {
			s.eng.ScheduleCall(iv, prioProbe, s.probeH, 0)
		}
	}
}

// onProbe samples every pool's instantaneous state plus the cumulative
// counters into the observer, then re-arms itself. It is read-only:
// no RNG draws, no simulation state mutated.
func (s *clusterSim) onProbe(now float64, _ uint64) {
	inFlight := 0
	if s.fab != nil {
		inFlight = s.fab.InFlight()
	}
	fired := s.eng.EventsFired()
	for _, p := range s.pools {
		live, parked := 0, 0
		for id := 0; id < p.sched.numInstances(); id++ {
			st := p.sched.state(id)
			switch {
			case st.parked:
				parked++
			case st.up:
				live++
			}
		}
		pBusy, dBusy := p.sched.busy()
		s.rec.Probe(obs.ProbeSample{
			T: now, Pool: int32(p.idx),
			Queue: p.sched.outstanding(), Live: live, Parked: parked,
			KVBlocks: p.kvInUse, NetInFlight: inFlight,
			PrefillBusy: pBusy, DecodeBusy: dBusy,
			Arrived: p.m.Arrived, Completed: p.m.Completed,
			Shed: p.m.Shed, Retries: p.m.ClientRetries,
			Abandoned: p.m.Abandoned, Timeouts: p.m.ClientTimeouts,
			Tokens: p.m.TokensGenerated, Events: fired,
		})
	}
	if next := now + s.rec.ProbeInterval(); next <= s.h {
		s.eng.ScheduleCall(next, prioProbe, s.probeH, 0)
	}
}

// scheduleArrival books the next pulled request's arrival event,
// rejecting a source that violates the RequestSource ordering contract
// with a diagnosable error instead of a bare engine panic.
//
//litegpu:hotpath
func (s *clusterSim) scheduleArrival(r trace.Request) {
	at := float64(r.Arrival)
	if at < s.eng.Now() || math.IsNaN(at) {
		panic(fmt.Sprintf(
			"serve: RequestSource yielded request %d arriving at %v after the clock reached %v; sources must yield nondecreasing, finite arrival times",
			r.ID, r.Arrival, s.eng.Now()))
	}
	s.nextReq = r
	s.eng.ScheduleCall(at, prioArrival, s.arriveH, 0)
}

// arrive fires one arrival: route it, pull the next request from the
// source, and keep exactly one pending arrival event in the calendar so
// long traces never materialize there.
//
//litegpu:hotpath
func (s *clusterSim) arrive(now float64, _ uint64) {
	s.route(s.nextReq, now)
	if r, ok := s.src.Next(); ok {
		s.scheduleArrival(r)
	}
	s.requestDispatch(now)
}

// jsqPick returns the join-shortest-queue pool index: least outstanding
// work per live (up, unparked) instance. Shared by the sequential
// router and the sharded runner's JSQ controller, which replicates the
// same decision over its global pool view.
//
//litegpu:hotpath
func jsqPick(pools []*poolSim) int {
	best := math.Inf(1)
	pick := 0
	for i, cand := range pools {
		outstanding := cand.sched.outstanding()
		live := 0
		for id := 0; id < cand.sched.numInstances(); id++ {
			st := cand.sched.state(id)
			if st.up && !st.parked {
				live++
			}
		}
		if live == 0 {
			live = 1 // a fully-down pool still queues, at worst-case load
			outstanding += 1 << 20
		}
		load := float64(outstanding) / float64(live)
		if load < best {
			best = load
			pick = i
		}
	}
	return pick
}

// route assigns an arriving request to a pool.
//
//litegpu:hotpath
func (s *clusterSim) route(r trace.Request, now float64) {
	var p *poolSim
	switch s.cc.Router {
	case JoinShortestQueue:
		p = s.pools[jsqPick(s.pools)]
	default: // RoundRobin
		p = s.pools[s.rrNext%len(s.pools)]
		s.rrNext++
	}
	s.acceptArrival(p, r, now)
}

// acceptArrival runs a routed request through the pool's frontend:
// arrival accounting, the admission gate, and the client loop, then
// queues it (directly, or over the fabric in multi-pool clusters). The
// sharded runner's JSQ controller calls it on the owning shard, so
// admission and client behavior are identical under sharding.
//
//litegpu:hotpath
func (s *clusterSim) acceptArrival(p *poolSim, r trace.Request, now float64) {
	p.m.Arrived++
	if p.classesOn {
		p.classAt(r.Class).arrived++
	}
	if p.rec != nil {
		p.rec.Request(obs.Arrival, now, int32(p.idx), -1, int64(r.ID), float64(r.PromptTokens))
	}
	if p.cfg.Admission.Policy != AdmitAll && p.shouldShed(r) {
		p.m.Shed++
		if p.classesOn {
			p.classAt(r.Class).shed++
		}
		if p.rec != nil {
			p.rec.Request(obs.Shed, now, int32(p.idx), -1, int64(r.ID), float64(r.Class))
		}
		// A shed closed-loop client behaves like a timed-out one: it
		// retries with backoff while it has budget, then gives up for
		// good. Open-loop classes (no timeout) just vanish, as before.
		if p.clientOn {
			b := p.behavior(r.Class)
			if b.Timeout > 0 && b.Retries > 0 {
				idx := p.newTrack()
				tr := &p.trackArena[idx]
				*tr = clientTrack{id: r.ID, class: int32(r.Class), open: true, req: r}
				s.scheduleRetry(p, int(idx), now, b)
				return
			}
			if b.Timeout > 0 {
				p.m.Abandoned++
				if p.classesOn {
					p.classAt(r.Class).abandoned++
				}
				if p.rec != nil {
					p.rec.Request(obs.Abandon, now, int32(p.idx), -1, int64(r.ID), 0)
				}
			}
		}
		return
	}
	if p.clientOn {
		s.openTrack(p, r, 0, now)
	}
	// With a fabric and more than one pool, the router's handoff to
	// the pool crosses the network: the prompt rides an ingress
	// transfer and joins the pool's queue on delivery. A single pool
	// is fed directly (its frontend is assumed adjacent).
	if s.fab != nil && len(s.pools) > 1 {
		s.startIngress(p, r, now)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.Enqueue, now, int32(p.idx), -1, int64(r.ID), 0)
	}
	p.sched.enqueue(r)
}

//litegpu:hotpath
func (s *clusterSim) requestDispatch(now float64) {
	if s.dispatchPending {
		return
	}
	s.dispatchPending = true
	s.eng.ScheduleOn(s.dispatchQ, now, prioDispatch, s.dispatchH, 0)
}

// dispatch hands freed or newly queued work to idle engines across all
// pools — the same pass the pre-sim loop ran at the end of every event
// time.
//
//litegpu:hotpath
func (s *clusterSim) dispatch(now float64, _ uint64) {
	s.dispatchPending = false
	for _, p := range s.pools {
		p.sched.dispatch(now)
	}
}

// --- failure machinery -------------------------------------------------

func (s *clusterSim) scheduleFailure(p *poolSim, id int, now float64) {
	st := p.sched.state(id)
	if st.failRNG == nil {
		return
	}
	at := now + st.failRNG.Exponential(st.rate)
	if math.IsInf(at, 1) {
		return
	}
	s.eng.ScheduleCall(at, prioFailure+st.prio, s.failH, packArg(p.idx, id))
}

func (s *clusterSim) onFail(now float64, arg uint64) {
	pi, id := unpackArg(arg)
	s.failInstance(s.pools[pi], id, now)
}

func (s *clusterSim) onRepair(now float64, arg uint64) {
	pi, _ := unpackArg(arg)
	s.repairDone(s.pools[pi], now)
}

func (s *clusterSim) onRecover(now float64, arg uint64) {
	pi, id := unpackArg(arg)
	s.recoverInstance(s.pools[pi], id, now)
}

// failInstance downs an instance: one of its GPUs died and rigid
// deployment takes the whole instance with it (the paper's software
// blast radius). In-flight work requeues or drops per the policy, the
// failed unit enters repair, and a hot spare — if one is free — brings
// the instance back after the takeover delay.
//
//litegpu:hotpath
func (s *clusterSim) failInstance(p *poolSim, id int, now float64) {
	if s.snapOnFail && s.snap == nil {
		// First failure: freeze the whole simulation before any
		// spare-shelf state is consulted. The engine has already popped
		// this event, so the snapshot pairs the post-pop calendar with
		// the (pool, instance, time) needed to re-run this handler on
		// restore. See snapshot.go.
		s.takeSnapshot(p, id, now)
	}
	st := p.sched.state(id)
	if !st.up {
		return // stale event; down instances carry no failure clock
	}
	st.up = false
	st.downAt = now
	p.m.FailureEvents++
	if p.rec != nil {
		p.rec.Cluster(obs.InstanceDown, now, int32(p.idx), int32(id), float64(p.sched.gpus(id)))
	}
	if st.doneEv != 0 {
		s.eng.Cancel(st.doneEv)
		st.doneEv = 0
	}

	p.sched.fail(id, now, s.cc.Failures.Policy == DropOnFailure)

	// The dead unit goes to the repair shop and returns to the spare
	// shelf after MTTR.
	s.eng.ScheduleCall(now+s.failMTTR, prioFailure+st.prio, s.repairH, packArg(p.idx, id))
	// A free spare takes over after the recovery interruption; otherwise
	// the instance queues for the next repaired unit.
	if p.spareFree > 0 {
		p.spareFree--
		s.scheduleRecovery(p, id, now)
	} else {
		p.waiting = append(p.waiting, id)
	}
	// Requeued work must reach surviving idle engines now, not at the
	// next unrelated event.
	s.requestDispatch(now)
}

//litegpu:hotpath
func (s *clusterSim) repairDone(p *poolSim, now float64) {
	p.spareFree++
	if len(p.waiting) > 0 {
		id := p.waiting[0]
		p.waiting = p.waiting[1:]
		p.spareFree--
		s.scheduleRecovery(p, id, now)
	}
}

//litegpu:hotpath
func (s *clusterSim) scheduleRecovery(p *poolSim, id int, now float64) {
	st := p.sched.state(id)
	s.eng.ScheduleCall(now+s.failRecovery, prioFailure+st.prio, s.recoverH, packArg(p.idx, id))
}

//litegpu:hotpath
func (s *clusterSim) recoverInstance(p *poolSim, id int, now float64) {
	st := p.sched.state(id)
	st.up = true
	st.downSec += now - st.downAt
	if p.rec != nil {
		p.rec.Cluster(obs.InstanceUp, now, int32(p.idx), int32(id), now-st.downAt)
	}
	p.sched.recovered(id, now)
	s.scheduleFailure(p, id, now)
	s.requestDispatch(now)
}

// --- metrics assembly --------------------------------------------------

func (s *clusterSim) assemble() ClusterMetrics {
	return assemblePools(s.pools, s.h)
}

// assemblePools folds per-pool accumulators into ClusterMetrics. It is
// a free function over the pool list so the sharded runner can merge
// the pools of every shard — ordered by global pool index — through
// the exact accumulation sequence the sequential path uses; float
// summation order is part of the byte-identity contract.
func assemblePools(pools []*poolSim, h float64) ClusterMetrics {
	var cm ClusterMetrics
	var (
		allTTFT, allTBT, allE2E []float64
		allXferT, allXferB      []float64
		ttftOK, tbtOK           int
		pBusyGPU, dBusyGPU      float64
		pGPUs, dGPUs            int
		downFLOPSec             float64
		totalFLOPs              float64
		totalRate               float64
		blastLoss               float64
		goodTokens              int
		usefulTokens            int
		netSec, e2eSec          float64
		kvHits, kvLookups       int
		classTotals             []classAcc
	)
	if len(pools) > 1 {
		// Preallocate the cross-pool sample unions; the single-pool case
		// below aliases the pool's samples instead.
		var nt, nb, ne int
		for _, p := range pools {
			nt += len(p.ttfts)
			nb += len(p.tbts)
			ne += len(p.e2es)
		}
		allTTFT = make([]float64, 0, nt)
		allTBT = make([]float64, 0, nb)
		allE2E = make([]float64, 0, ne)
	}
	for _, p := range pools {
		m := &p.m
		m.TTFT = mathx.Summarize(p.ttfts)
		m.TBT = mathx.Summarize(p.tbts)
		m.E2E = mathx.Summarize(p.e2es)
		m.TTFTAttainmentCompleted = ratio(p.ttftOK, len(p.ttfts))
		m.TTFTAttainment = ratio(p.ttftOK, m.Arrived-m.Dropped)
		m.TBTAttainment = ratio(p.tbtOK, len(p.tbts))
		m.TransferBytes = mathx.Summarize(p.xferB)
		m.TransferTime = mathx.Summarize(p.xferT)
		var poolE2E float64
		for _, v := range p.e2es {
			poolE2E += v
		}
		if p.netSec > 0 && poolE2E > 0 {
			m.NetworkBoundFraction = p.netSec / poolE2E
		}
		// KV occupancy: close the time-weighted integral at the horizon
		// without mutating the accumulators — the planner's fork path
		// assembles the same pools twice.
		m.KVPreemptions = p.kvPreempt
		m.KVRecomputeTokens = p.kvRecompute
		m.KVPeakBlocks = p.kvPeak
		m.KVCacheHitRate = ratio(p.kvHits, p.kvLookups)
		if h > 0 {
			m.KVMeanBlocks = (p.kvBlockSec + float64(p.kvInUse)*(h-p.kvLastT)) / h
		}

		shape := p.sched.shape()
		poolPBusy, poolDBusy := p.sched.busy()
		if h > 0 {
			m.PrefillUtilization = poolPBusy / (h * float64(shape.prefillInstances))
			m.DecodeUtilization = poolDBusy / (h * float64(shape.decodeInstances))
			m.Goodput = float64(p.goodTokens) / h
			m.UsefulGoodput = float64(p.usefulTokens) / h
		}

		// Closed-loop / autoscale reporting. Utilization denominators
		// above deliberately stay provisioned-fleet based — parked
		// capacity is still paid for; MeanLiveInstances reports what was
		// actually serving. Classes is rebuilt from the raw accumulators
		// on every assemble (the planner's fork path assembles twice).
		if p.scaleOn && h > 0 {
			parked := 0.0
			for id := p.scaleLo; id < p.scaleHi; id++ {
				st := p.sched.state(id)
				parked += st.parkedSec
				if st.parked {
					parked += h - st.parkedAt
				}
			}
			m.MeanLiveInstances = float64(p.sched.numInstances()) - parked/h
		}
		if p.classesOn {
			m.Classes = buildClassMetrics(p, h)
		}

		// Availability: GPU-weighted uptime over the horizon, counting
		// instances still down at the end. blastRate/blastLoss accumulate
		// Σ P(instance i fails next)·(capacity share lost): within a pool
		// failure odds and capacity are both proportional to GPU count.
		poolGPUs := p.sched.totalGPUs()
		var poolDown float64
		var poolBlast float64
		for id := 0; id < p.sched.numInstances(); id++ {
			st := p.sched.state(id)
			down := st.downSec
			if !st.up {
				down += h - st.downAt
			}
			g := float64(p.sched.gpus(id))
			poolDown += down * g
			poolBlast += g * g
		}
		m.Availability = 1
		if h > 0 && poolGPUs > 0 {
			m.Availability = 1 - poolDown/(h*float64(poolGPUs))
		}
		if poolGPUs > 0 {
			m.BlastRadius = poolBlast / float64(poolGPUs*poolGPUs)
		}

		cm.Pools = append(cm.Pools, PoolMetrics{Name: p.name, Metrics: *m})

		// Aggregate accumulators.
		cm.Total.Arrived += m.Arrived
		cm.Total.Completed += m.Completed
		cm.Total.Dropped += m.Dropped
		cm.Total.TokensGenerated += m.TokensGenerated
		cm.Total.FailureEvents += m.FailureEvents
		cm.Total.Requeued += m.Requeued
		cm.Total.DroppedOnFailure += m.DroppedOnFailure
		cm.Total.NetTransfers += m.NetTransfers
		cm.Total.KVPreemptions += m.KVPreemptions
		cm.Total.KVRecomputeTokens += m.KVRecomputeTokens
		cm.Total.KVPeakBlocks += m.KVPeakBlocks
		cm.Total.KVMeanBlocks += m.KVMeanBlocks
		cm.Total.ClientTimeouts += m.ClientTimeouts
		cm.Total.ClientRetries += m.ClientRetries
		cm.Total.Abandoned += m.Abandoned
		cm.Total.Shed += m.Shed
		cm.Total.ScaleUps += m.ScaleUps
		cm.Total.ScaleDowns += m.ScaleDowns
		cm.Total.MeanLiveInstances += m.MeanLiveInstances
		for ci := range p.classes {
			for len(classTotals) <= ci {
				classTotals = append(classTotals, classAcc{})
			}
			src, dst := &p.classes[ci], &classTotals[ci]
			dst.arrived += src.arrived
			dst.completed += src.completed
			dst.shed += src.shed
			dst.timedOut += src.timedOut
			dst.retries += src.retries
			dst.abandoned += src.abandoned
			dst.ttftOK += src.ttftOK
			dst.goodTokens += src.goodTokens
		}
		kvHits += p.kvHits
		kvLookups += p.kvLookups
		netSec += p.netSec
		e2eSec += poolE2E
		if len(pools) == 1 {
			allTTFT, allTBT, allE2E = p.ttfts, p.tbts, p.e2es
		} else {
			allTTFT = append(allTTFT, p.ttfts...)
			allTBT = append(allTBT, p.tbts...)
			allE2E = append(allE2E, p.e2es...)
			allXferT = append(allXferT, p.xferT...)
			allXferB = append(allXferB, p.xferB...)
		}
		ttftOK += p.ttftOK
		tbtOK += p.tbtOK
		// Weight busy time by the GPUs behind it so the aggregate stays
		// GPU-weighted across heterogeneous pools (within one pool the
		// two weightings coincide).
		pBusyGPU += poolPBusy * float64(shape.prefillGPUs)
		dBusyGPU += poolDBusy * float64(shape.decodeGPUs)
		pGPUs += shape.prefillInstances * shape.prefillGPUs
		dGPUs += shape.decodeInstances * shape.decodeGPUs
		// Cross-pool weights: a pool's failure odds scale with its per-GPU
		// AFR and its capacity with its per-GPU compute — one Lite GPU is
		// neither as failure-prone nor as capable as one H100.
		downFLOPSec += poolDown * p.flopsPerGPU
		totalFLOPs += float64(poolGPUs) * p.flopsPerGPU
		for id := 0; id < p.sched.numInstances(); id++ {
			g := float64(p.sched.gpus(id))
			rateW := g * p.afrPerGPU
			totalRate += rateW
			blastLoss += rateW * g * p.flopsPerGPU // ÷ totalFLOPs below
		}
		goodTokens += p.goodTokens
		usefulTokens += p.usefulTokens
	}

	t := &cm.Total
	if len(pools) == 1 {
		// One pool: the union IS the pool's sample; reuse its summaries
		// instead of re-sorting the same data.
		m := &cm.Pools[0].Metrics
		t.TTFT, t.TBT, t.E2E = m.TTFT, m.TBT, m.E2E
		t.TransferBytes, t.TransferTime = m.TransferBytes, m.TransferTime
	} else {
		t.TTFT = mathx.Summarize(allTTFT)
		t.TBT = mathx.Summarize(allTBT)
		t.E2E = mathx.Summarize(allE2E)
		t.TransferBytes = mathx.Summarize(allXferB)
		t.TransferTime = mathx.Summarize(allXferT)
	}
	if netSec > 0 && e2eSec > 0 {
		t.NetworkBoundFraction = netSec / e2eSec
	}
	t.TTFTAttainmentCompleted = ratio(ttftOK, len(allTTFT))
	t.TTFTAttainment = ratio(ttftOK, t.Arrived-t.Dropped)
	t.TBTAttainment = ratio(tbtOK, len(allTBT))
	t.KVCacheHitRate = ratio(kvHits, kvLookups)
	if h > 0 {
		t.PrefillUtilization = pBusyGPU / (h * float64(pGPUs))
		t.DecodeUtilization = dBusyGPU / (h * float64(dGPUs))
		t.Goodput = float64(goodTokens) / h
		t.UsefulGoodput = float64(usefulTokens) / h
	}
	t.Availability = 1
	if h > 0 && totalFLOPs > 0 {
		t.Availability = 1 - downFLOPSec/(h*totalFLOPs)
	}
	// Expected capacity fraction lost per failure: which instance fails
	// is AFR-rate-weighted, what it removes is compute-weighted. For a
	// homogeneous cluster this reduces to Σg²/G², matching the per-pool
	// formula.
	if totalRate > 0 && totalFLOPs > 0 {
		t.BlastRadius = blastLoss / totalRate / totalFLOPs
	}
	// Cross-pool class totals: ratios recomputed from the merged raw
	// accumulators, never averaged across pools.
	if len(classTotals) > 0 {
		t.Classes = make([]ClassMetrics, len(classTotals))
		for i := range classTotals {
			acc := &classTotals[i]
			t.Classes[i] = ClassMetrics{
				Class:          i,
				Arrived:        acc.arrived,
				Completed:      acc.completed,
				Shed:           acc.shed,
				TimedOut:       acc.timedOut,
				Retries:        acc.retries,
				Abandoned:      acc.abandoned,
				TTFTAttainment: ratio(acc.ttftOK, acc.arrived),
			}
			if h > 0 {
				t.Classes[i].Goodput = float64(acc.goodTokens) / h
			}
		}
	}
	return cm
}
