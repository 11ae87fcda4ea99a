// The allocation guard for Sample. Kept out of race builds: the race
// runtime allocates on its own.

//go:build !race

package load

import "testing"

// TestSampleAllocsOnlySlice: Sample allocates its sample slice and nothing
// else — the run callback that fills it stays on the stack — for the
// edge-walked shapes and a per-sample profile alike.
func TestSampleAllocsOnlySlice(t *testing.T) {
	for _, p := range []Profile{NewUniform(25e-3, 130e-3), NewPulse(50e-3, 30e-3), BLERadio()} {
		if n := testing.AllocsPerRun(20, func() { Sample(p, SampleRateDefault) }); n != 1 {
			t.Errorf("%s: %v allocations per Sample, want 1 (the slice)", p.Name(), n)
		}
	}
}
