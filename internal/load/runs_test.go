package load

import (
	"math"
	"testing"
)

// runRates are the grids the run walker is checked on: the paper's
// 125 kHz, rates whose sample period is exact or inexact in binary, and
// both ends of the range culpeod and the CLIs accept.
var runRates = []float64{125e3, 100e3, 44.1e3, 33.3e3, 1e3, 1e6}

// checkRuns holds Runs and Sample to the left-edge rule: every sample of
// Sample(p, rate) must equal p.Current(float64(j)*(1/rate)) under
// math.Float64bits, and Runs must yield the trace's maximal runs — non-empty,
// each differing from its neighbour, covering exactly the grid.
func checkRuns(t *testing.T, p Profile, rate float64) {
	t.Helper()
	n, r := SampleGrid(p, rate)
	tr := Sample(p, rate)
	if len(tr.Samples) != n || tr.Rate != r {
		t.Fatalf("%s at %g Hz: %d samples at %g Hz, want %d at %g", p.Name(), rate, len(tr.Samples), tr.Rate, n, r)
	}
	dt := 1 / r
	for j, got := range tr.Samples {
		if want := p.Current(float64(j) * dt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s at %g Hz: sample %d of %d = %v, Current = %v", p.Name(), rate, j, n, got, want)
		}
	}
	k, prev := 0, uint64(0)
	Runs(p, rate, func(v float64, count int) {
		b := math.Float64bits(v)
		switch {
		case count < 1:
			t.Fatalf("%s at %g Hz: run at %d has count %d", p.Name(), rate, k, count)
		case k > 0 && b == prev:
			t.Fatalf("%s at %g Hz: run at %d repeats its neighbour's value %v", p.Name(), rate, k, v)
		case k+count > n:
			t.Fatalf("%s at %g Hz: runs overrun the %d-sample grid", p.Name(), rate, n)
		}
		for j := k; j < k+count; j++ {
			if math.Float64bits(tr.Samples[j]) != b {
				t.Fatalf("%s at %g Hz: run [%d, %d) = %v, sample %d = %v", p.Name(), rate, k, k+count, v, j, tr.Samples[j])
			}
		}
		k, prev = k+count, b
	})
	if k != n {
		t.Fatalf("%s at %g Hz: runs cover %d of %d samples", p.Name(), rate, k, n)
	}
}

// fuzzProfile builds one of the profile kinds the walker treats
// differently: the two edge-walked shapes, a pulse whose two levels are
// equal, and per-sample profiles (a sequence with a ramp, a ramp, an
// offset pulse).
func fuzzProfile(kind uint8, i1, t1, i2, t2 float64) Profile {
	switch kind % 6 {
	case 0:
		return Uniform{ID: "u", ILoad: i1, TPulse: t1}
	case 1:
		return Pulse{ID: "p", ILoad: i1, TPulse: t1, ICompute: i2, TCompute: t2}
	case 2:
		return Pulse{ID: "p=", ILoad: i1, TPulse: t1, ICompute: i1, TCompute: t2}
	case 3:
		return NewSeq("s", Uniform{ID: "u", ILoad: i1, TPulse: t1}, Ramp{ID: "r", I0: i1, I1: i2, T: t2})
	case 4:
		return Ramp{ID: "r", I0: i1, I1: i2, T: t1}
	default:
		return Offset{ID: "o", Base: Pulse{ID: "p", ILoad: i1, TPulse: t1, ICompute: i2, TCompute: t2}, Add: i2}
	}
}

// FuzzSampleRuns is the differential check of the run walker: for any
// profile kind, currents and edges (on or off the grid), Sample built from
// Runs equals the profile sampled point by point. The seeds run under go
// test.
func FuzzSampleRuns(f *testing.F) {
	for k := range runRates {
		rate := uint8(k)
		f.Add(uint8(0), rate, 25e-3, 10e-3, 0.0, 0.0)
		f.Add(uint8(0), rate, 5e-3, 130e-3, 0.0, 0.0)
		f.Add(uint8(1), rate, 50e-3, 5e-3, 1.5e-3, 100e-3)
		f.Add(uint8(1), rate, 20e-3, 10.0004e-3, 1.5e-3, 0.0)     // zero TCompute, edge off the grid
		f.Add(uint8(1), rate, 20e-3, 3.3333e-3, 7e-3, 2.71828e-3) // both edges off the grid
		f.Add(uint8(1), rate, 0.0, 0.0, 1.5e-3, 1e-3)             // zero TPulse
		f.Add(uint8(2), rate, 12e-3, 4e-3, 0.0, 6e-3)             // ICompute == ILoad: one run
		f.Add(uint8(3), rate, 5e-3, 1e-3, 9e-3, 2e-3)
		f.Add(uint8(4), rate, 1e-3, 3e-3, 9e-3, 0.0)
		f.Add(uint8(5), rate, 30e-3, 2e-3, 1e-3, 3e-3)
	}
	f.Fuzz(func(t *testing.T, kind, rateIdx uint8, i1, t1, i2, t2 float64) {
		rate := runRates[int(rateIdx)%len(runRates)]
		p := fuzzProfile(kind, i1, t1, i2, t2)
		// Sample itself needs a finite grid of 1 or more samples; keep it
		// small enough to check point by point.
		if d := p.Duration() * rate; !(d > -1 && d <= 1<<16) {
			t.Skip()
		}
		checkRuns(t, p, rate)
	})
}
