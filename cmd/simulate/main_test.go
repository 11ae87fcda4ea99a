package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestPickLoad(t *testing.T) {
	p, err := pickLoad("", "50mA", "100ms", "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() != 0.1 {
		t.Errorf("duration = %g", p.Duration())
	}
	p, err = pickLoad("", "25mA", "10ms", "pulse")
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() != 0.11 {
		t.Errorf("pulse duration = %g", p.Duration())
	}
	for _, name := range []string{"gesture", "ble", "mnist", "lora"} {
		if _, err := pickLoad(name, "", "", ""); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := pickLoad("ghost", "", "", ""); err == nil {
		t.Error("unknown peripheral accepted")
	}
	if _, err := pickLoad("", "bad", "10ms", "uniform"); err == nil {
		t.Error("bad current accepted")
	}
	if _, err := pickLoad("", "5mA", "bad", "uniform"); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := pickLoad("", "5mA", "10ms", "triangle"); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestParseVSweep(t *testing.T) {
	vs, err := parseVSweep("1.8, 2.0,2.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 1.8 || vs[2] != 2.4 {
		t.Errorf("parsed %v", vs)
	}
	for _, bad := range []string{"", ",,", "1.8,abc", "0,2.0", "-1.5"} {
		if _, err := parseVSweep(bad); err == nil {
			t.Errorf("parseVSweep(%q) accepted", bad)
		}
	}
}

// TestRealMainErrors drives the binary's error paths: each bad invocation
// must exit non-zero with a usable message on stderr.
func TestRealMainErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"unknown flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"-vstart", "high"}, 2, "invalid value"},
		{"negative workers", []string{"-workers", "-3"}, 2, "-workers must be >= 0"},
		{"unknown peripheral", []string{"-peripheral", "ghost"}, 1, `unknown peripheral "ghost"`},
		{"unknown shape", []string{"-shape", "nope"}, 1, `unknown shape "nope"`},
		{"unknown shape in sweep", []string{"-shape", "nope", "-vsweep", "1.8,2.4"}, 1, `unknown shape "nope"`},
		{"bad capacitance", []string{"-c", "xyz"}, 1, "bad -c"},
		{"bad decoupling", []string{"-dec", "junk"}, 1, "bad -dec"},
		{"bad vsweep entry", []string{"-vsweep", "1.8,abc"}, 1, "bad -vsweep entry"},
		{"empty vsweep", []string{"-vsweep", ",,"}, 1, "-vsweep lists no voltages"},
		{"negative duration", []string{"-i", "10mA", "-t", "-5ms", "-shape", "uniform"}, 1, "shape needs positive i and t"},
		{"zero current", []string{"-i", "0", "-t", "10ms", "-shape", "pulse"}, 1, "shape needs positive i and t"},
		{"negative duration in sweep", []string{"-t", "-5ms", "-vsweep", "1.8,2.4"}, 1, "shape needs positive i and t"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := realMain(context.Background(), tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestRealMainTrace checks the single-run CSV path end to end.
func TestRealMainTrace(t *testing.T) {
	var stdout, stderr strings.Builder
	code := realMain(context.Background(), []string{"-i", "10mA", "-t", "10ms", "-vstart", "2.4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "t_s,") {
		t.Errorf("trace header wrong: %q", firstLine(stdout.String()))
	}
	if !strings.Contains(stderr.String(), "completed=true") {
		t.Errorf("summary missing: %q", stderr.String())
	}
}

// TestRealMainVSweep checks the parallel starting-voltage sweep: one table
// row per requested voltage, in input order, independent of worker count.
func TestRealMainVSweep(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		var stdout, stderr strings.Builder
		code := realMain(context.Background(),
			[]string{"-i", "50mA", "-t", "10ms", "-shape", "pulse", "-vsweep", "1.8,2.0,2.2,2.4", "-workers", workers},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s: exit = %d, stderr: %s", workers, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "Starting-voltage sweep") {
			t.Errorf("workers=%s: missing table title:\n%s", workers, out)
		}
		for _, v := range []string{"1.800", "2.000", "2.200", "2.400"} {
			if !strings.Contains(out, v) {
				t.Errorf("workers=%s: missing row for %s V:\n%s", workers, v, out)
			}
		}
		// Rows must appear in input order regardless of scheduling.
		if strings.Index(out, "1.800") > strings.Index(out, "2.400") {
			t.Errorf("workers=%s: rows out of order:\n%s", workers, out)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestRealMainFaults checks the fault-injection flag end to end: a mid-run
// harvester dropout plus end-of-life aging must change the physics (lower
// final voltage than the clean run), and spec errors must be reported.
func TestRealMainFaults(t *testing.T) {
	runOnce := func(args ...string) (string, string, int) {
		var stdout, stderr strings.Builder
		code := realMain(context.Background(), args, &stdout, &stderr)
		return stdout.String(), stderr.String(), code
	}

	base := []string{"-i", "10mA", "-t", "100ms", "-vstart", "2.4", "-harvest", "0.02"}
	_, cleanErr, code := runOnce(base...)
	if code != 0 {
		t.Fatalf("clean run failed: %s", cleanErr)
	}
	faulted := append(append([]string{}, base...),
		"-faults", "dropout:at=10ms;age:life=1")
	_, faultErr, code := runOnce(faulted...)
	if code != 0 {
		t.Fatalf("faulted run failed: %s", faultErr)
	}
	vFinal := func(stderr string) float64 {
		i := strings.Index(stderr, "v_final=")
		if i < 0 {
			t.Fatalf("no v_final in summary: %q", stderr)
		}
		var v float64
		fmt.Sscanf(stderr[i:], "v_final=%f", &v)
		return v
	}
	if vc, vf := vFinal(cleanErr), vFinal(faultErr); !(vf < vc) {
		t.Errorf("faults had no effect: clean v_final=%g faulted v_final=%g", vc, vf)
	}

	if _, stderr, code := runOnce("-faults", "meteor:x=1"); code != 1 || !strings.Contains(stderr, "bad -faults") {
		t.Errorf("bad spec: code=%d stderr=%q", code, stderr)
	}

	// Fault injection composes with the concurrent -vsweep path.
	out, stderr, code := runOnce("-i", "50mA", "-t", "10ms", "-shape", "pulse",
		"-vsweep", "1.8,2.4", "-faults", "seed:3;noise:sigma=1mV;esr:factor=2", "-workers", "4")
	if code != 0 {
		t.Fatalf("faulted vsweep failed: %s", stderr)
	}
	if !strings.Contains(out, "Starting-voltage sweep") {
		t.Errorf("faulted vsweep output wrong:\n%s", out)
	}
}
