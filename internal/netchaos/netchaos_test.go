package netchaos

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"seed", "netchaos: seed clause needs a value (seed:N)"},
		{"seed:x", `netchaos: bad seed "x"`},
		{"seed:1.5", `netchaos: bad seed "1.5"`},
		{"warp:d=1ms", `netchaos: unknown fault kind "warp"`},
		{"latency:speed=1", `netchaos: latency: unknown key "speed"`},
		{"latency", "netchaos: latency needs d or jitter"},
		{"latency:d=1ms,d=2ms", `netchaos: latency: duplicate key "d"`},
		{"latency:d", `netchaos: latency: expected key=value, got "d"`},
		{"latency:d=-1ms", "netchaos: latency: d must be in [0,3600] s, got -0.001"},
		{"latency:d=4000", "netchaos: latency: d must be in [0,3600] s, got 4000"},
		{"reset:after=1.5", "netchaos: reset: after must be an integer in [0,1e9], got 1.5"},
		{"reset:after=-1", "netchaos: reset: after must be an integer in [0,1e9], got -1"},
		{"h503:retryafter=5000", "netchaos: h503 retryafter must be <= 3600 s, got 5000"},
		{"down:every=5", "netchaos: down: every needs count"},
		{"down:count=6,every=5", "netchaos: down: count exceeds every"},
		{"blackhole:from=2e12", "netchaos: blackhole: from must be an integer in [0,1e9], got 2e+12"},
		{"latency:d=NaN", `netchaos: latency: bad value for d: units: bad number "NaN": strconv.ParseFloat: parsing "": invalid syntax`},
		{"slow:chunk=0.5", "netchaos: slow: chunk must be an integer in [0,1e9], got 0.5"},
		{"partition", "netchaos: partition needs plo in [1,65535], got 0"},
		{"partition:plo=9000,phi=80", "netchaos: partition phi 80 outside [plo,65535]"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.in)
		} else if err.Error() != c.want {
			t.Errorf("Parse(%q) error\n got %q\nwant %q", c.in, err, c.want)
		}
	}
}

func TestParseAndCanonicalForm(t *testing.T) {
	spec, err := Parse(" seed:7 ; latency:d=2ms ; h503:retryafter=1,from=5,count=2,every=19 ;; down ")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Seed != 7 || len(spec.Faults) != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	want := "seed:7;latency:d=0.002;h503:count=2,every=19,from=5,retryafter=1;down"
	if got := spec.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	again, err := Parse(spec.String())
	if err != nil || again.String() != want {
		t.Fatalf("round trip: %v, %q", err, again.String())
	}
	for in, canon := range map[string]string{
		"slow":                            "slow:chunk=64,delay=0.001",
		"latency:jitter=1ms,d=250ms":      "latency:d=0.25,jitter=0.001",
		"reset:after=0;h503:retryafter=0": "reset;h503",
		"partition:plo=8080,phi=8080":     "partition:plo=8080",
		"seed:-3;partition:plo=9000,phi=9007,from=4,count=3,every=16": "seed:-3;partition:count=3,every=16,from=4,phi=9007,plo=9000",
		"blackhole:from=0,count=0":                                    "blackhole",
	} {
		spec, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := spec.String(); got != canon {
			t.Errorf("String(%q) = %q, want %q", in, got, canon)
		}
	}
}

func TestWindowActive(t *testing.T) {
	cases := []struct {
		w    Window
		hits []int
		miss []int
	}{
		{Window{}, []int{0, 1, 100}, nil},
		{Window{From: 3}, []int{3, 4, 99}, []int{0, 2}},
		{Window{From: 2, Count: 2}, []int{2, 3}, []int{0, 1, 4, 10}},
		{Window{From: 1, Count: 1, Every: 3}, []int{1, 4, 7}, []int{0, 2, 3, 5, 6}},
		{Window{From: 0, Count: 2, Every: 5}, []int{0, 1, 5, 6, 10}, []int{2, 3, 4, 7, 9}},
	}
	for _, c := range cases {
		for _, i := range c.hits {
			if !c.w.Active(i) {
				t.Errorf("%+v.Active(%d) = false, want true", c.w, i)
			}
		}
		for _, i := range c.miss {
			if c.w.Active(i) {
				t.Errorf("%+v.Active(%d) = true, want false", c.w, i)
			}
		}
	}
}

// chaosClient returns an HTTP client that opens a fresh connection per
// request, so connection indices line up 1:1 with requests.
func chaosClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
}

// startProxy boots a backend + proxy pair and returns the proxy base URL.
func startProxy(t *testing.T, specStr string) (*Proxy, string) {
	t.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 512))
	}))
	t.Cleanup(backend.Close)
	spec, err := Parse(specStr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", specStr, err)
	}
	p := New(spec, strings.TrimPrefix(backend.URL, "http://"))
	addr, err := p.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(p.Close)
	return p, "http://" + addr
}

func TestProxyCleanRelay(t *testing.T) {
	p, base := startProxy(t, "")
	resp, err := chaosClient().Get(base)
	if err != nil {
		t.Fatalf("GET through clean proxy: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != 512 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Fate != "ok" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestProxyH503(t *testing.T) {
	_, base := startProxy(t, "h503:retryafter=2")
	resp, err := chaosClient().Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "injected") {
		t.Fatalf("body = %q", body)
	}
}

func TestProxyDownResetsConnection(t *testing.T) {
	_, base := startProxy(t, "down")
	if _, err := chaosClient().Get(base); err == nil {
		t.Fatal("GET through down proxy succeeded")
	}
}

func TestProxyResetMidBody(t *testing.T) {
	_, base := startProxy(t, "reset:after=100")
	resp, err := chaosClient().Get(base)
	if err == nil {
		// The reset may land after headers were relayed; then the error
		// surfaces on the body read.
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("full body received through reset proxy")
		}
	}
}

func TestProxyLatency(t *testing.T) {
	_, base := startProxy(t, "latency:d=80ms")
	t0 := time.Now()
	resp, err := chaosClient().Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(t0); elapsed < 80*time.Millisecond {
		t.Fatalf("request took %v, want >= 80ms", elapsed)
	}
}

func TestProxySlowStillCompletes(t *testing.T) {
	_, base := startProxy(t, "slow:chunk=128,delay=2ms")
	resp, err := chaosClient().Get(base)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || len(body) != 512 {
		t.Fatalf("slow read: %v, %d bytes", rerr, len(body))
	}
}

func TestProxyWindowedFateIsPerConnection(t *testing.T) {
	p, base := startProxy(t, "h503:from=1,count=1,every=3")
	client := chaosClient()
	var statuses []int
	for i := 0; i < 6; i++ {
		resp, err := client.Get(base)
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	want := []int{200, 503, 200, 200, 503, 200}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("statuses = %v, want %v", statuses, want)
		}
	}
	var fates []string
	for _, ev := range p.Events() {
		fates = append(fates, ev.Fate)
	}
	wantF := []string{"ok", "h503", "ok", "ok", "h503", "ok"}
	if len(fates) != len(wantF) {
		t.Fatalf("events = %v, want %v", fates, wantF)
	}
	for i := range wantF {
		if fates[i] != wantF[i] {
			t.Fatalf("events = %v, want %v", fates, wantF)
		}
	}
}

func TestProxyDeterministicEventLog(t *testing.T) {
	const spec = "seed:7;latency:d=1ms,jitter=1ms;h503:from=2,count=1,every=3;down:from=4,count=1,every=5"
	run := func() []Event {
		p, base := startProxy(t, spec)
		client := chaosClient()
		for i := 0; i < 10; i++ {
			resp, err := client.Get(base)
			if err != nil {
				continue // down connections error; that's the point
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return p.Events()
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("event counts = %d/%d, want 10/10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at conn %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProxyBlackholeTimesOut(t *testing.T) {
	_, base := startProxy(t, "blackhole")
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   100 * time.Millisecond,
	}
	if _, err := client.Get(base); err == nil {
		t.Fatal("GET through blackhole succeeded")
	}
}

// TestProxyPartitionMatchesPortRange hands the same fleet-wide partition
// spec to two proxies; only the one whose upstream port is in the listed
// range blackholes its traffic — the other relays untouched.
func TestProxyPartitionMatchesPortRange(t *testing.T) {
	backendA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "A")
	}))
	t.Cleanup(backendA.Close)
	backendB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "B")
	}))
	t.Cleanup(backendB.Close)

	targetA := strings.TrimPrefix(backendA.URL, "http://")
	targetB := strings.TrimPrefix(backendB.URL, "http://")
	_, portA, err := net.SplitHostPort(targetA)
	if err != nil {
		t.Fatalf("SplitHostPort(%q): %v", targetA, err)
	}
	spec, err := Parse("partition:plo=" + portA)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	proxyA, proxyB := New(spec, targetA), New(spec, targetB)
	addrA, err := proxyA.Start()
	if err != nil {
		t.Fatalf("Start A: %v", err)
	}
	t.Cleanup(proxyA.Close)
	addrB, err := proxyB.Start()
	if err != nil {
		t.Fatalf("Start B: %v", err)
	}
	t.Cleanup(proxyB.Close)

	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   200 * time.Millisecond,
	}
	if _, err := client.Get("http://" + addrA); err == nil {
		t.Fatal("GET through partitioned shard's proxy succeeded")
	}
	resp, err := client.Get("http://" + addrB)
	if err != nil {
		t.Fatalf("GET through unaffected proxy: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "B" {
		t.Fatalf("unaffected proxy body = %q", body)
	}
	if ev := proxyA.Events(); len(ev) != 1 || ev[0].Fate != "partition" {
		t.Fatalf("partitioned proxy events = %+v", ev)
	}
	if ev := proxyB.Events(); len(ev) != 1 || ev[0].Fate != "ok" {
		t.Fatalf("unaffected proxy events = %+v", ev)
	}
}
