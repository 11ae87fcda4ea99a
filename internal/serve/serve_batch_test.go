package serve

import (
	"math"
	"net/http"
	"testing"
)

// simCorpus is a mixed batch: completing and browning-out elements,
// custom power systems, harvest subsidies and explicit start voltages.
func simCorpus() []SimulateRequest {
	return []SimulateRequest{
		{Load: LoadSpec{Shape: "pulse", I: 25e-3, T: 10e-3}},
		{Load: LoadSpec{Shape: "uniform", I: 5, T: 1}}, // browns out
		{Load: LoadSpec{Shape: "uniform", I: 25e-3, T: 10e-3}, VStart: 2.2},
		{Load: LoadSpec{Peripheral: "gesture"}, VStart: 1.9},
		{Load: LoadSpec{Shape: "pulse", I: 40e-3, T: 5e-3}, Harvest: 5e-3},
		{Load: LoadSpec{Shape: "uniform", I: 30e-3, T: 20e-3}, Power: PowerSpec{C: 20e-3, ESR: 3}},
		{Load: LoadSpec{Peripheral: "lora"}, VStart: 1.75}, // marginal
	}
}

// checkSimParity compares a batch element's verdict against the scalar
// /v1/simulate answer for the same request. Exact elements must match bit
// for bit; fast elements are bounded (the fast batch lane segments the
// compiled schedule differently from the scalar fast scan) but must agree
// on the verdict.
func checkSimParity(t *testing.T, name string, got, want SimulateResponse, exact bool) {
	t.Helper()
	if got.Completed != want.Completed || got.PowerFailed != want.PowerFailed || got.Error != want.Error {
		t.Errorf("%s: verdict diverged: batch %+v, scalar %+v", name, got, want)
		return
	}
	fields := []struct {
		fname  string
		gv, wv float64
	}{
		{"v_start", got.VStart, want.VStart},
		{"v_min", got.VMin, want.VMin},
		{"v_final", got.VFinal, want.VFinal},
		{"duration", got.Duration, want.Duration},
		{"energy_used", got.EnergyUsed, want.EnergyUsed},
	}
	for _, f := range fields {
		if exact {
			if math.Float64bits(f.gv) != math.Float64bits(f.wv) {
				t.Errorf("%s: %s %v (%#x) != scalar %v (%#x)",
					name, f.fname, f.gv, math.Float64bits(f.gv), f.wv, math.Float64bits(f.wv))
			}
		} else if math.Abs(f.gv-f.wv) > 1e-3 {
			t.Errorf("%s: %s %v vs scalar %v beyond 1 mV", name, f.fname, f.gv, f.wv)
		}
	}
}

// TestBatchSimulateParity: every element of a batch simulation answers
// byte-identically to posting the same element to /v1/simulate alone —
// the serving-layer face of the batch stepper's equivalence contract.
func TestBatchSimulateParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, fast := range []bool{false, true} {
		reqs := simCorpus()
		for i := range reqs {
			reqs[i].Fast = fast
		}
		got := decodeResp[BatchResponse](t, postJSON(t, ts.URL+"/v1/batch", BatchRequest{Simulations: reqs}), http.StatusOK)
		if len(got.Simulations) != len(reqs) {
			t.Fatalf("fast=%v: got %d results, want %d", fast, len(got.Simulations), len(reqs))
		}
		for i, req := range reqs {
			el := got.Simulations[i]
			if el.Result == nil {
				t.Fatalf("fast=%v: element %d missing result: %+v", fast, i, el)
			}
			want := decodeResp[SimulateResponse](t, postJSON(t, ts.URL+"/v1/simulate", req), http.StatusOK)
			checkSimParity(t, req.Load.Shape+req.Load.Peripheral, *el.Result, want, !fast)
		}
	}
}

// TestBatchSimulateErrorsInPlace: a malformed element reports its error in
// its own slot without failing its siblings; mixed estimate+simulation
// batches answer both lists.
func TestBatchSimulateErrorsInPlace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{
		Requests: []VSafeRequest{
			{Load: LoadSpec{Shape: "uniform", I: 25e-3, T: 10e-3}},
		},
		Simulations: []SimulateRequest{
			{Load: LoadSpec{Shape: "pulse", I: 25e-3, T: 10e-3}},
			{Load: LoadSpec{Shape: "nope"}},                                   // bad spec
			{Load: LoadSpec{Shape: "uniform", I: 1e-3, T: 1e-3}, VStart: 0.2}, // bad v_start
			{Load: LoadSpec{Shape: "uniform", I: 25e-3, T: 10e-3}},
		},
	}
	got := decodeResp[BatchResponse](t, postJSON(t, ts.URL+"/v1/batch", req), http.StatusOK)
	if len(got.Results) != 1 || got.Results[0].Estimate == nil {
		t.Fatalf("estimate list: %+v", got.Results)
	}
	if len(got.Simulations) != 4 {
		t.Fatalf("got %d simulation results, want 4", len(got.Simulations))
	}
	for _, i := range []int{1, 2} {
		if got.Simulations[i].Error == "" || got.Simulations[i].Result != nil {
			t.Errorf("element %d should fail in place: %+v", i, got.Simulations[i])
		}
	}
	for _, i := range []int{0, 3} {
		if got.Simulations[i].Result == nil || !got.Simulations[i].Result.Completed {
			t.Errorf("element %d should complete: %+v", i, got.Simulations[i])
		}
	}
}

// TestBatchSimulateSizeCap: the cap counts estimate and simulation
// elements together.
func TestBatchSimulateSizeCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sims := make([]SimulateRequest, maxBatch)
	for i := range sims {
		sims[i] = SimulateRequest{Load: LoadSpec{Shape: "uniform", I: 25e-3, T: 10e-3}}
	}
	req := BatchRequest{
		Requests:    []VSafeRequest{{Load: LoadSpec{Shape: "uniform", I: 25e-3, T: 10e-3}}},
		Simulations: sims,
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized mixed batch: status %d, want 400", resp.StatusCode)
	}
}
