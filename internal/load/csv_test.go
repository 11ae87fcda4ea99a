package load

import (
	"math"
	"strings"
	"testing"
)

func TestTraceFromCSVOneColumn(t *testing.T) {
	in := "0.01\n0.02\n0.03\n"
	tr, err := TraceFromCSV(strings.NewReader(in), "x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 3 || tr.Rate != 1000 || tr.ID != "x" {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Samples[1] != 0.02 {
		t.Error("sample value wrong")
	}
}

func TestTraceFromCSVTwoColumnInfersRate(t *testing.T) {
	in := "time_s,current_A\n0,0.01\n0.001,0.02\n0.002,0.03\n"
	tr, err := TraceFromCSV(strings.NewReader(in), "y", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Rate-1000) > 1e-6 {
		t.Errorf("inferred rate = %g, want 1000", tr.Rate)
	}
	if len(tr.Samples) != 3 {
		t.Errorf("samples = %d", len(tr.Samples))
	}
}

func TestTraceFromCSVSkipsHeaderCommentsBlank(t *testing.T) {
	in := "# capture session 42\ncurrent\n\n0.005\n0.006\n"
	tr, err := TraceFromCSV(strings.NewReader(in), "z", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 2 {
		t.Errorf("samples = %d", len(tr.Samples))
	}
	if tr.Rate != SampleRateDefault {
		t.Error("default rate not applied")
	}
}

func TestTraceFromCSVErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"a,b,c\n1,2,3\n",       // three columns
		"0.01\nbroken\n",       // bad number mid-file
		"0,-0.01\n0.001,0.0\n", // negative current
		"0,0.01\n0,0.02\n",     // non-ascending time
		"0,abc\n",              // bad current column
		"NaN\n",                // non-finite samples
		"0.01\nInf\n",
		"0,0.01\nNaN,0.02\n", // non-finite timestamps
		"0,0.01\nInf,0.02\n",
		"0,0.01\n5e-324,0.02\n",     // the inferred rate overflows
		"-1e308,0.01\n1e308,0.02\n", // the interval overflows
	}
	for i, in := range cases {
		if _, err := TraceFromCSV(strings.NewReader(in), "x", 1000); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

// TestTraceFromCSVNonFinite: a negative or non-finite rate argument and
// non-finite samples fail with culpeod's wording for the same input; a
// rate of 0 still selects the default.
func TestTraceFromCSVNonFinite(t *testing.T) {
	for _, tc := range []struct {
		in      string
		rate    float64
		wantErr string
	}{
		{"0.01\n", math.NaN(), "load: sample rate NaN"},
		{"0.01\n", math.Inf(1), "load: sample rate +Inf"},
		{"0.01\n", -5, "load: sample rate -5"},
		{"0.01\nNaN\n", 1000, "load: sample 1 = NaN"},
		{"0,-Inf\n", 1000, "load: sample 0 = -Inf"},
		{"0,0.01\nNaN,0.02\n", 1000, "load: csv line 2: timestamp NaN"},
	} {
		_, err := TraceFromCSV(strings.NewReader(tc.in), "x", tc.rate)
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%q at rate %g: error %v, want %q", tc.in, tc.rate, err, tc.wantErr)
		}
	}
	tr, err := TraceFromCSV(strings.NewReader("0.01\n"), "x", 0)
	if err != nil || tr.Rate != SampleRateDefault {
		t.Fatalf("rate 0: rate %g, error %v; want the default %g", tr.Rate, err, SampleRateDefault)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	orig := Sample(NewPulse(25e-3, 10e-3), 10e3)
	var sb strings.Builder
	if err := orig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := TraceFromCSV(strings.NewReader(sb.String()), orig.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.Rate-orig.Rate) > 1e-3 {
		t.Errorf("rate mismatch: %g vs %g", back.Rate, orig.Rate)
	}
	if len(back.Samples) != len(orig.Samples) {
		t.Fatalf("sample count mismatch: %d vs %d", len(back.Samples), len(orig.Samples))
	}
	for i := range back.Samples {
		if math.Abs(back.Samples[i]-orig.Samples[i]) > 1e-12 {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestWindowAndSplitEven(t *testing.T) {
	base := NewPulse(25e-3, 10e-3) // 110 ms total
	w := Window{Base: base, Start: 5e-3, Dur: 10e-3}
	if w.Current(0) != 25e-3 {
		t.Error("window start should be inside the pulse")
	}
	if w.Current(6e-3) != 1.5e-3 {
		t.Error("window should see the compute tail after the pulse ends")
	}
	if w.Current(-1) != 0 || w.Current(11e-3) != 0 {
		t.Error("window bounds wrong")
	}
	if w.Duration() != 10e-3 {
		t.Error("window duration wrong")
	}
	if w.Name() == "" {
		t.Error("window name empty")
	}
	if (Window{ID: "n", Base: base, Dur: 1}).Name() != "n" {
		t.Error("custom window name ignored")
	}

	parts := SplitEven(base, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total float64
	for _, p := range parts {
		total += p.Duration()
	}
	if math.Abs(total-base.Duration()) > 1e-12 {
		t.Errorf("split durations sum to %g", total)
	}
	// Energy is conserved across the split.
	var eParts float64
	for _, p := range parts {
		eParts += Energy(p, 2.55, 50e3)
	}
	eBase := Energy(base, 2.55, 50e3)
	if math.Abs(eParts-eBase)/eBase > 0.01 {
		t.Errorf("split energy %g vs base %g", eParts, eBase)
	}
	if len(SplitEven(base, 0)) != 1 {
		t.Error("degenerate split should yield one chunk")
	}
}
