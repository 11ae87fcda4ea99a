// The allocation guard for the trace decode. Kept out of race builds: the
// race runtime allocates on its own and drops sync.Pool puts at random.

//go:build !race

package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestDecodeVSafeTraceAllocs bounds a trace decode to a small constant
// number of allocations plus the samples slice, and checks the samples
// against json.Unmarshal bit for bit.
func TestDecodeVSafeTraceAllocs(t *testing.T) {
	body := hotTraceBody(t)
	var want VSafeRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	tr := newTraceRequest(body)
	var req VSafeRequest
	allocs := testing.AllocsPerRun(50, func() {
		tr.rd.Reset(body)
		req = VSafeRequest{}
		if err := decodeRequest(tr.r, maxBodyBytes, &req); err != nil {
			t.Fatal(err)
		}
	})
	// The samples slice, the part string and the request itself.
	if allocs > 3 {
		t.Errorf("decode of a 2,500-sample trace: %.0f allocs, want <= 3", allocs)
	}
	if !sameValue(reflect.ValueOf(req), reflect.ValueOf(want)) || cap(req.Load.Samples) != len(want.Load.Samples) {
		t.Errorf("decoded trace diverges from json.Unmarshal (len %d cap %d)", len(req.Load.Samples), cap(req.Load.Samples))
	}
}

// TestBodyMemoHitAllocs: a repeated raw-trace body (a memo hit) allocates
// no more through the handler than a shape's cache hit on the full decode
// path, and neither allocates per sample.
func TestBodyMemoHitAllocs(t *testing.T) {
	ctx := context.Background()
	handlerAllocs := func(s *Server, body []byte) float64 {
		tr := newTraceRequest(body)
		run := func() {
			tr.rd.Reset(body)
			if _, err := s.handleVSafe(ctx, tr.r); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the cache (and the memo, when it is on)
		return testing.AllocsPerRun(50, run)
	}
	noMemo := New(Config{})
	noMemo.memo = newBodyMemo(0)
	shape := handlerAllocs(noMemo, []byte(`{"power":{"part":"supercapacitor-0000","bank_c":0.045},"load":{"shape":"pulse","i":0.03,"t":0.005}}`))
	s := New(Config{})
	hit := handlerAllocs(s, hotTraceBody(t))
	if m := s.memo.stats(); m.Hits < 50 {
		t.Fatalf("memo stats %+v: the repeated trace body did not hit", m)
	}
	if hit > shape {
		t.Errorf("memo hit on a 2,500-sample trace: %.0f allocs, shape hit on the full path: %.0f", hit, shape)
	}
	t.Logf("allocs: memo hit %.0f, shape hit %.0f", hit, shape)
}
