package load

import "math/rand/v2"

// NoisyTrace draws n current samples (A) shaped like a raw capture that a
// device uploads: a 0.5–3 mA sleep floor with one to four bursts of 5–30 mA
// and ±5% noise, at full float64 precision. The draw is seeded by n, so a
// given n always yields the same samples; the artifact's
// decode/vsafe-trace-2500 and vsafe/trace-hit-2500 rows and internal/serve's
// BenchmarkDecodeVSafeTrace all time NoisyTrace(2500).
func NoisyTrace(n int) []float64 {
	r := rand.New(rand.NewPCG(1, uint64(n)))
	s := make([]float64, n)
	floor := 0.5e-3 + 2.5e-3*r.Float64()
	for i := range s {
		s[i] = floor
	}
	for b := 1 + r.IntN(4); b > 0; b-- {
		at, width, amp := r.IntN(n), 50+r.IntN(n/2), 5e-3+25e-3*r.Float64()
		for i := at; i < at+width && i < n; i++ {
			s[i] += amp
		}
	}
	for i := range s {
		s[i] *= 1 + 0.05*(2*r.Float64()-1)
	}
	return s
}
