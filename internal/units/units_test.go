package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"45mF", 45e-3},
		{"10ms", 10e-3},
		{"50mA", 50e-3},
		{"2.4V", 2.4},
		{"10", 10},
		{"10Ω", 10},
		{"120u", 120e-6},
		{"20nA", 20e-9},
		{"1.5e-3", 1.5e-3},
		{"2kΩ", 2e3},
		{"3MΩ", 3e6},
		{"-5mV", -5e-3},
		{"7pF", 7e-12},
		{"100µF", 100e-6},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if !RelEqual(got, c.want, 1e-12) {
			t.Errorf("Parse(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "V", "abc", "--3", "1e400", "1e308M", "-1e308MF", "2e305k", "1.8e308"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %g, expected error", in, v)
		}
	}
}

// TestParseRangeEdges: the largest values a prefix can scale stay finite
// and parse; one step further is an error, not an infinity.
func TestParseRangeEdges(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"1.7976931348623157e308", math.MaxFloat64},
		{"1.7e302M", 1.7e308},
		{"1e-300p", 1e-312},
		{"-1e302M", -1e308},
	} {
		got, err := Parse(c.in)
		if err != nil || !RelEqual(got, c.want, 1e-12) {
			t.Errorf("Parse(%q) = %g, %v; want %g", c.in, got, err, c.want)
		}
	}
	_, err := Parse("1e308M")
	if err == nil || err.Error() != `units: "1e308M" overflows float64` {
		t.Errorf("Parse(1e308M) error %v, want an overflow error", err)
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0.045, "F", "45mF"},
		{2.4, "V", "2.4V"},
		{0, "A", "0A"},
		{1500, "Ω", "1.5kΩ"},
		{2.2e-6, "F", "2.2µF"},
		{20e-9, "A", "20nA"},
		{3.5e6, "Ω", "3.5MΩ"},
	}
	for _, c := range cases {
		if got := Format(c.v, c.unit); got != c.want {
			t.Errorf("Format(%g,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Abs(math.Mod(raw, 1e6)) // keep in a printable range
		if math.IsNaN(v) || v == 0 {
			return true
		}
		s := Format(v, "V")
		got, err := Parse(s)
		if err != nil {
			return false
		}
		return RelEqual(got, v, 1e-2) // Format keeps 4 significant digits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestLerp(t *testing.T) {
	if Lerp(1, 3, 0.5) != 2 {
		t.Error("Lerp midpoint wrong")
	}
	if Lerp(1, 3, 0) != 1 || Lerp(1, 3, 1) != 3 {
		t.Error("Lerp endpoints wrong")
	}
}

func TestEnergyCapRoundTrip(t *testing.T) {
	f := func(cRaw, vRaw float64) bool {
		c := math.Abs(math.Mod(cRaw, 1.0)) + 1e-6
		v := math.Abs(math.Mod(vRaw, 10.0))
		e := EnergyCap(c, v)
		back := VoltageForEnergy(c, e)
		return RelEqual(back, v, 1e-9) || v == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVoltageForEnergyEdge(t *testing.T) {
	if VoltageForEnergy(0, 1) != 0 {
		t.Error("zero capacitance should give 0")
	}
	if VoltageForEnergy(1, -1) != 0 {
		t.Error("negative energy should give 0")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0005, 1e-3) {
		t.Error("within tolerance should be equal")
	}
	if ApproxEqual(1.0, 1.01, 1e-3) {
		t.Error("outside tolerance should differ")
	}
}
