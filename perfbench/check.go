package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// outcome is one rep's result, reduced to what the result checks and the
// report read.
type outcome struct {
	Arrived   int
	Completed int
	// Digest fingerprints every simulated output of the rep. Identical
	// inputs must give identical digests, traced or not.
	Digest string
	// Fired lists, per mechanism the workload exists to exercise, whether
	// the rep shows it working (a workload whose flash crowd sheds nothing
	// would be timing a different code path than the one it names).
	Fired []mechanism
}

// mechanism is one named must-fire condition of a workload.
type mechanism struct {
	Name string
	OK   bool
}

// digest hashes the printed form of the values. fmt prints floats in
// their shortest exact form and map keys sorted, so the hash is
// deterministic for the pointer-free result structs it is given.
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkOutcome returns why a rep's result is wrong, or nil. want is the
// digest every rep of the run must reproduce ("" for the first rep).
func checkOutcome(o outcome, runErr error, want string) error {
	if runErr != nil {
		return runErr
	}
	if o.Completed <= 0 {
		return fmt.Errorf("no request completed (arrived %d)", o.Arrived)
	}
	if o.Arrived < o.Completed {
		return fmt.Errorf("completed %d exceeds arrived %d", o.Completed, o.Arrived)
	}
	for _, m := range o.Fired {
		if !m.OK {
			return fmt.Errorf("mechanism %q did not fire", m.Name)
		}
	}
	if want != "" && o.Digest != want {
		return fmt.Errorf("result digest %s differs from the first rep's %s", o.Digest, want)
	}
	return nil
}
