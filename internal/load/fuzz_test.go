package load

import (
	"math"
	"strings"
	"testing"
)

// FuzzTraceFromCSV checks the CSV ingester never panics and that accepted
// traces are physically valid.
func FuzzTraceFromCSV(f *testing.F) {
	for _, seed := range []string{
		"0.01\n0.02\n",
		"time_s,current_A\n0,0.01\n0.001,0.02\n",
		"# comment\n\n0.005\n",
		"a,b,c\n",
		"0,-1\n",
		strings.Repeat("0.001\n", 100),
		"0,0.01\n0,0.02\n",
		"NaN\n",
		"Inf\n",
		"0,0.01\nNaN,0.02\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := TraceFromCSV(strings.NewReader(s), "fuzz", 1000)
		if err != nil {
			return
		}
		if len(tr.Samples) == 0 {
			t.Fatal("accepted trace with no samples")
		}
		if !(tr.Rate > 0) || math.IsInf(tr.Rate, 0) {
			t.Fatalf("accepted trace with rate %g", tr.Rate)
		}
		for i, v := range tr.Samples {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("accepted sample %d = %g", i, v)
			}
		}
		if !(tr.Duration() > 0) {
			t.Fatal("accepted zero-duration trace")
		}
	})
}
