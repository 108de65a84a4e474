package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer boots a micro-cluster daemon behind the ingress, the
// daemon's one front, and returns its base URL: admin routes are answered
// by the ingress's Handler() fallback.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, _, addr := newTestIngress(t, cfg, IngressConfig{})
	return srv, "http://" + addr
}

func TestHTTPSessionFlow(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	client := NewClient(base)
	defer client.Close()
	ctx := context.Background()

	info, outcome, lat, err := client.Request(ctx, 0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request: outcome %q, err %v", outcome, err)
	}
	if lat <= 0 {
		t.Fatal("latency not measured")
	}
	if info.Video != 0 || info.RateBps <= 0 {
		t.Fatalf("bad session info: %+v", info)
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d, want 1", srv.Active())
	}

	if err := client.CloseSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "session teardown", func() bool { return srv.Active() == 0 })
	if err := client.CloseSession(ctx, info.ID); err == nil {
		t.Fatal("closing a dead session succeeded")
	}

	// Saturate v1 (one 2-slot holder): the third request gets the busy
	// signal with a Retry-After hint, from a stock net/http client too.
	for i := 0; i < 2; i++ {
		if _, outcome, _, err := client.Request(ctx, 1); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("fill %d: outcome %q, err %v", i, outcome, err)
		}
	}
	if _, outcome, _, err := client.Request(ctx, 1); err != nil || outcome != OutcomeRejected {
		t.Fatalf("saturated request: outcome %q, err %v", outcome, err)
	}
	resp, err := http.Post(base+"/open", "application/json", strings.NewReader(`{"video":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated admission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeRejected {
		t.Fatalf("outcome %q, want rejected", e.Outcome)
	}
}

// TestHTTPBadRequests: refusals through the ingress, on its admission path
// and on the routes it hands to Handler(). The retired /session routes are
// unknown paths now.
func TestHTTPBadRequests(t *testing.T) {
	_, base := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{http.MethodPost, "/open", `{"video":"abc"}`, http.StatusBadRequest},
		{http.MethodPost, "/open", `{"video":99}`, http.StatusBadRequest},
		{http.MethodPost, "/open", ``, http.StatusBadRequest},
		{http.MethodPost, "/close", `{"id":"notanumber"}`, http.StatusBadRequest},
		{http.MethodPost, "/close", `{"id":12345}`, http.StatusNotFound},
		{http.MethodPost, "/backend/99/drain", ``, http.StatusBadRequest},
		{http.MethodPost, "/backend/x/restore", ``, http.StatusBadRequest},
		{http.MethodGet, "/open", ``, http.StatusMethodNotAllowed},
		{http.MethodPost, "/session?video=0", ``, http.StatusNotFound},
		{http.MethodDelete, "/session/1", ``, http.StatusNotFound},
		{http.MethodGet, "/nope", ``, http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s %s: status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestHTTPHealthzAndLayout(t *testing.T) {
	srv, base := newTestServer(t, Config{Policy: "static-rr", Compress: 60})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", resp.StatusCode, h)
	}

	resp, err = http.Get(base + "/layout")
	if err != nil {
		t.Fatal(err)
	}
	var l layoutBody
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if l.Servers != 2 || l.Videos != 3 || l.Policy != "static-rr" || l.Compress != 60 {
		t.Fatalf("layout: %+v", l)
	}
	if len(l.VideoServers) != 3 || len(l.VideoServers[0]) != 2 {
		t.Fatalf("layout replica map: %+v", l.VideoServers)
	}

	// A backend drain shows up in /healthz; a daemon drain flips the status.
	if _, err := http.Post(base+"/backend/0/drain", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.DrainedBackends != 1 {
		t.Fatalf("drained backends = %d, want 1", h.DrainedBackends)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz during drain: status %d body %+v", resp.StatusCode, h)
	}
}

// stubRebalancer is a canned serve.Rebalancer for exercising the HTTP
// surface without spinning up the real controller.
type stubRebalancer struct {
	triggers atomic.Int64
	status   RebalanceStatus
}

func (r *stubRebalancer) Observe(int) {}
func (r *stubRebalancer) Trigger() bool {
	r.triggers.Add(1)
	return true
}
func (r *stubRebalancer) Status() RebalanceStatus { return r.status }
func (r *stubRebalancer) Stop()                   {}

func TestHTTPRebalanceAndLayoutVersion(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	getLayout := func() layoutBody {
		t.Helper()
		resp, err := http.Get(base + "/layout")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var l layoutBody
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	l := getLayout()
	if l.LayoutVersion != 1 {
		t.Fatalf("fresh layout version %d, want 1", l.LayoutVersion)
	}
	wantBytes := 0.0
	p := srv.Cluster().Problem()
	for v, servers := range l.VideoServers {
		if l.LiveReplicas[v] != len(servers) {
			t.Fatalf("live_replicas[%d] = %d, holders %v", v, l.LiveReplicas[v], servers)
		}
		wantBytes += float64(len(servers)) * p.Catalog[v].SizeBytes()
	}
	if l.ReplicatedBytes != wantBytes {
		t.Fatalf("replicated_bytes = %g, want %g", l.ReplicatedBytes, wantBytes)
	}

	// No controller attached: status is a zero-ish snapshot, trigger conflicts.
	resp, err := http.Get(base + "/rebalance")
	if err != nil {
		t.Fatal(err)
	}
	var st RebalanceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Enabled || st.LayoutVersion != 1 {
		t.Fatalf("detached rebalance status: %+v", st)
	}
	resp, err = http.Post(base+"/rebalance/trigger", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trigger without controller: status %d, want 409", resp.StatusCode)
	}

	// Attached: trigger lands on the controller, status passes through.
	stub := &stubRebalancer{status: RebalanceStatus{Enabled: true, Rounds: 3, LayoutVersion: 1}}
	srv.AttachRebalancer(stub)
	resp, err = http.Post(base+"/rebalance/trigger", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trigger: status %d, want 202", resp.StatusCode)
	}
	if stub.triggers.Load() != 1 {
		t.Fatalf("triggers = %d, want 1", stub.triggers.Load())
	}
	resp, err = http.Get(base + "/rebalance")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Enabled || st.Rounds != 3 {
		t.Fatalf("attached rebalance status: %+v", st)
	}

	// A directory mutation bumps the version and the live replica view.
	v := 1
	dst := -1
	holders := srv.Cluster().Holders(v)
	for s := 0; s < srv.Cluster().Servers(); s++ {
		held := false
		for _, h := range holders {
			if h == s {
				held = true
			}
		}
		if !held {
			dst = s
			break
		}
	}
	if dst == -1 {
		t.Fatalf("video %d already everywhere: %v", v, holders)
	}
	if err := srv.LandReplica(v, dst); err != nil {
		t.Fatal(err)
	}
	l2 := getLayout()
	if l2.LayoutVersion != 2 {
		t.Fatalf("layout version after migration = %d, want 2", l2.LayoutVersion)
	}
	if l2.LiveReplicas[v] != len(holders)+1 {
		t.Fatalf("live_replicas[%d] = %d, want %d", v, l2.LiveReplicas[v], len(holders)+1)
	}
	if l2.ReplicatedBytes != wantBytes+p.Catalog[v].SizeBytes() {
		t.Fatalf("replicated_bytes = %g after migration, want %g", l2.ReplicatedBytes, wantBytes+p.Catalog[v].SizeBytes())
	}
}

// TestClientSharedConn: Request and CloseSession share the client's one
// fast connection across goroutines, a connection that died under it costs
// a redial, not a failed request, and a request the daemon answered with an
// error is not sent twice.
func TestClientSharedConn(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	client := NewClient(base)
	defer client.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ { // four streams of v0 fill both 2-slot holders
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				info, outcome, _, err := client.Request(ctx, 0)
				if err != nil || outcome != OutcomeAccepted {
					t.Errorf("request: outcome %q, err %v", outcome, err)
					return
				}
				if err := client.CloseSession(ctx, info.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := srv.Active(); n != 0 {
		t.Fatalf("%d sessions left open", n)
	}

	client.fc.Close() // the connection dies between two requests
	if _, outcome, _, err := client.Request(ctx, 0); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request after the connection died: outcome %q, err %v", outcome, err)
	}

	// An answered refusal is not sent again: one bad video, one count.
	if _, _, _, err := client.Request(ctx, 99); err == nil {
		t.Fatal("request for a video outside the catalog succeeded")
	}
	if n := srv.Metrics().badVideo.Load(); n != 1 {
		t.Fatalf("bad-video count %d after one request, want 1", n)
	}
}

// TestClientClose: Close releases the fast connection Request dialed — the
// ingress's connection set drains to empty — a second Close is a no-op, and
// a later Request redials.
func TestClientClose(t *testing.T) {
	_, ing, addr := newTestIngress(t, Config{}, IngressConfig{})
	client := NewClient("http://" + addr)
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		info, outcome, _, err := client.Request(ctx, 0)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("round %d: request: outcome %q, err %v", round, outcome, err)
		}
		if n := ing.Conns(); n != 1 {
			t.Fatalf("round %d: ingress holds %d connections, want 1", round, n)
		}
		if err := client.CloseSession(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("round %d: second close: %v", round, err)
		}
		waitUntil(t, 2*time.Second, "ingress connection release", func() bool { return ing.Conns() == 0 })
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := NewClient(base)
	defer client.Close()
	ctx := context.Background()
	if _, outcome, _, err := client.Request(ctx, 0); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request: outcome %q, err %v", outcome, err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`vod_requests_total{outcome="accepted"} 1`,
		`vod_requests_total{outcome="rejected"} 0`,
		`vod_sessions_active 1`,
		`vod_server_capacity_bps{server="0"} 10000000`,
		`vod_admission_latency_seconds_count 1`,
		`vod_policy_info{policy="least-loaded"} 1`,
		`vod_admission_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHTTPDrainEndpointFailsOver(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	client := NewClient(base)
	defer client.Close()
	info, outcome, _, err := client.Request(context.Background(), 0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request: outcome %q, err %v", outcome, err)
	}
	resp, err := http.Post(base+"/backend/"+strconv.Itoa(info.Server)+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var counts map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&counts); err != nil {
		t.Fatal(err)
	}
	if counts["failed_over"] != 1 || counts["dropped"] != 0 {
		t.Fatalf("drain counts: %v", counts)
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d after failover, want 1", srv.Active())
	}
}
