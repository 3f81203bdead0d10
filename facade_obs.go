package litegpu

import "litegpu/internal/obs"

// Observability, re-exported from internal/obs.
//
// An Observer attaches to a cluster simulation through
// ServeClusterConfig.Observer and records the run's telemetry without
// perturbing it: sampled per-request span timelines (exportable as
// Chrome trace_event JSON, loadable in Perfetto), fixed-interval
// time-series probes (exportable as CSV or JSON), and instance-level
// failure/autoscale events. Attaching an observer never changes
// simulation results — the golden corpora pass byte-identical with one
// live — and a nil Observer costs nothing on the hot path.
type (
	// Observer records one run's telemetry; build one with NewObserver
	// and attach it via ServeClusterConfig.Observer. Not safe for
	// concurrent use: it belongs to one run, which runs on one
	// goroutine.
	Observer = obs.Recorder
	// ObserverOptions configures an Observer: reservoir seed and size,
	// probe interval, and an optional completion heartbeat callback.
	ObserverOptions = obs.Options
	// ObserverEvent is one recorded timeline entry.
	ObserverEvent = obs.Event
	// ObserverKind enumerates the recorded event kinds.
	ObserverKind = obs.Kind
	// ObserverProbeSample is one fixed-interval time-series sample.
	ObserverProbeSample = obs.ProbeSample
	// PlanTrace is the capacity planner's decision record: attach one
	// via CapacityRequest.Trace to capture every candidate the search
	// considered, its sizing ladder, and why it won or lost. Render
	// writes the human-readable explanation; WriteJSON the machine-
	// readable one.
	PlanTrace = obs.PlanTrace
	// PlanCandidate is one (scheduler, fabric, kv, admission)
	// combination's decision record inside a PlanTrace.
	PlanCandidate = obs.PlanCandidate
	// PlanRung is one sizing step of a candidate's search ladder.
	PlanRung = obs.PlanRung
)

// NewObserver builds an Observer. The zero ObserverOptions value is
// valid: default reservoir size, probes off, no heartbeat.
func NewObserver(o ObserverOptions) *Observer { return obs.New(o) }
