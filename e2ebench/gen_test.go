package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// requestStream returns the first n request bodies one worker of the named
// workload sends, set-up requests first, generated from scratch.
func requestStream(t *testing.T, workload string, seed uint64, worker, n int) [][]byte {
	t.Helper()
	var out [][]byte
	switch workload {
	case "vsafe-hot":
		keys := genHotKeys(seed)
		for _, k := range keys {
			out = append(out, k.Body)
		}
		s := newHotStream(seed, worker)
		for i := 0; i < n; i++ {
			out = append(out, keys[s.next()].Body)
		}
	case "batch-provision":
		pool, err := genSimPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, genFill(seed)...)
		s := newBatchStream(seed, worker)
		for i := 0; i < n; i++ {
			out = append(out, s.next(pool).Body)
		}
	case "stream-durable":
		devs := genDevices(seed)
		for i := range devs {
			out = append(out, mustJSON(devs[i].openRequest()))
		}
		s := newObsStream(seed, saltStream, worker, 2)
		for i := 0; i < n; i++ {
			_, _, body := s.next(devs)
			out = append(out, body)
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for name := range workloads {
		for worker := 0; worker < 2; worker++ {
			a := requestStream(t, name, 7, worker, 64)
			b := requestStream(t, name, 7, worker, 64)
			if len(a) != len(b) {
				t.Fatalf("%s: stream lengths %d and %d", name, len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("%s worker %d: request %d differs between two generations of seed 7", name, worker, i)
				}
			}
		}
	}
}

func TestOtherSeedOtherKeys(t *testing.T) {
	for name := range workloads {
		a := requestStream(t, name, 7, 0, 64)
		b := requestStream(t, name, 8, 0, 64)
		seen := make(map[string]bool, len(a))
		for _, body := range a {
			seen[string(body)] = true
		}
		shared := 0
		for _, body := range b {
			if seen[string(body)] {
				shared++
			}
		}
		if shared != 0 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d request bodies", name, shared, len(b))
		}
	}
}

// TestBatchDuplicates pins the in-batch duplicate share the dedup counter
// check relies on.
func TestBatchDuplicates(t *testing.T) {
	pool, err := genSimPool(3)
	if err != nil {
		t.Fatal(err)
	}
	s := newBatchStream(3, 0)
	for i := 0; i < 16; i++ {
		op := s.next(pool)
		dups := 0
		for j, f := range op.Origin {
			if f != j {
				dups++
				if op.Origin[f] != f || string(mustJSON(op.Req.Requests[j])) != string(mustJSON(op.Req.Requests[f])) {
					t.Fatalf("batch %d: element %d does not repeat its origin %d", i, j, f)
				}
			}
		}
		if dups != batchDups || len(op.Req.Requests) != batchEstimates || len(op.Req.Simulations) != batchSims {
			t.Fatalf("batch %d: %d duplicates of %d estimates, %d simulations", i, dups, len(op.Req.Requests), len(op.Req.Simulations))
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric names the benchmark
// prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := (&e2e{}).metrics()
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("the benchmark prints %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: the benchmark prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Errorf("the benchmark prints %d per-layer metrics, BENCHMARK.json declares %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
