// The allocation guard for the trace decode. Kept out of race builds: the
// race runtime allocates on its own and drops sync.Pool puts at random.

//go:build !race

package serve

import (
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
