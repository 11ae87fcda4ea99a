package units

import (
	"math"
	"testing"
)

// FuzzParse checks Parse never panics, accepts only finite values, and that
// accepted values round-trip through Format within formatting precision.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"45mF", "10ms", "-5mV", "2.4", "1e-3", "µ", "1µF", "0",
		"1e", "e1", "++", "3MΩ", "999999999999999999999", ".5", "1e308M", "1e400",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Parse(%q) = %g, want a finite value or an error", s, v)
		}
		if math.Abs(v) > 1e15 || (v != 0 && math.Abs(v) < 1e-14) {
			return // outside Format's engineering-prefix range
		}
		out := Format(v, "X")
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Format(%g) = %q does not re-parse: %v", v, out, err)
		}
		if !RelEqual(back, v, 1e-2) {
			t.Fatalf("round trip %q → %g → %q → %g", s, v, out, back)
		}
	})
}
