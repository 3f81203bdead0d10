package serve

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotForkMatchesFullRun is the snapshot contract: forking a
// failure run at its first failure and resuming with k spares must be
// byte-identical to simulating the whole run with k spares from t=0,
// and the same fork must be replayable any number of times.
func TestSnapshotForkMatchesFullRun(t *testing.T) {
	cfg := smallConfig()
	reqs := codingTrace(t, 1.5, 3, 200)
	f := acceleratedFailures(0)
	m0, fork, err := runForkable(cfg, f, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if fork.sim.snap == nil {
		t.Fatal("accelerated failures fired no failure; fork test is vacuous")
	}
	for spares := 0; spares <= 3; spares++ {
		fs := f
		fs.Spares = spares
		want, err := runOneFailures(cfg, fs, reqs, 400)
		if err != nil {
			t.Fatal(err)
		}
		got := fork.runWithSpares(spares)
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Errorf("spares=%d: fork resume diverges from full run\ngot:  %x\nwant: %x", spares, got, want)
		}
		if spares == 0 && fmt.Sprintf("%x", got) != fmt.Sprintf("%x", m0) {
			t.Errorf("spares=0 resume diverges from the fork's own spare-free run")
		}
	}
	// The snapshot is immutable: replaying an already-used spare count
	// after other resumes must reproduce the same bytes.
	a := fork.runWithSpares(1)
	b := fork.runWithSpares(1)
	if fmt.Sprintf("%x", a) != fmt.Sprintf("%x", b) {
		t.Error("repeated resume from the same fork diverges")
	}
}

// TestForkWithoutFailureReturnsBaseMetrics pins the full-skip path: when
// no failure fires inside the horizon there is no snapshot, and every
// spare count returns the spare-free metrics unchanged (spares are only
// observable through failInstance).
func TestForkWithoutFailureReturnsBaseMetrics(t *testing.T) {
	cfg := smallConfig()
	reqs := codingTrace(t, 1.0, 7, 100)
	f := FailureConfig{Enabled: true, Seed: 5} // paper AFRs: no failure in 200 s
	m0, fork, err := runForkable(cfg, f, reqs, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fork.sim.snap != nil {
		t.Fatal("paper-AFR short window unexpectedly saw a failure")
	}
	if got := fork.runWithSpares(2); fmt.Sprintf("%x", got) != fmt.Sprintf("%x", m0) {
		t.Errorf("failure-free fork resume altered metrics: %x vs %x", got, m0)
	}
}

// TestPlanSnapshotReuseInvariance is the planner contract: snapshot
// reuse is a pure wall-clock optimization, so the chosen plan — config,
// spares, cost, and full hex-float metrics — must be byte-identical
// with reuse on and off.
func TestPlanSnapshotReuseInvariance(t *testing.T) {
	req := planRequest(20)
	req.Failures = FailureConfig{Enabled: true, Seed: 5}
	slo := SLO{MinAvailability: 0.99999}
	on, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	req.NoSnapshotReuse = true
	off, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on.Config, off.Config) || on.Spares != off.Spares || on.TotalGPUs != off.TotalGPUs {
		t.Errorf("snapshot reuse changed the chosen deployment: %+v vs %+v", on.Config, off.Config)
	}
	if fmt.Sprintf("%x", on.Metrics) != fmt.Sprintf("%x", off.Metrics) {
		t.Errorf("snapshot reuse changed plan metrics:\non:  %x\noff: %x", on.Metrics, off.Metrics)
	}
	if on.Cost != off.Cost || on.Availability != off.Availability {
		t.Error("snapshot reuse changed cost or availability readouts")
	}
}
