package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestIngress binds a sharded ingress over a fresh micro-cluster daemon
// on a loopback port.
func newTestIngress(t *testing.T, cfg Config, icfg IngressConfig) (*Server, *Ingress, string) {
	t.Helper()
	srv, err := New(testProblem(t, 0), testLayout(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngress(srv, icfg)
	if err != nil {
		srv.Shutdown()
		t.Fatal(err)
	}
	addr, err := ing.Start("127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ing.Close()
		srv.Shutdown()
	})
	return srv, ing, addr.String()
}

func TestIngressFastSessionFlow(t *testing.T) {
	srv, ing, addr := newTestIngress(t, Config{}, IngressConfig{})
	fc, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	info, out, err := fc.Open(0)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", out, err)
	}
	if info.Video != 0 || info.RateBps <= 0 {
		t.Fatalf("bad session info: %+v", info)
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d, want 1", srv.Active())
	}
	closed, err := fc.CloseSession(info.ID)
	if err != nil || !closed {
		t.Fatalf("close: %v %v", closed, err)
	}
	waitUntil(t, 2*time.Second, "session teardown", func() bool { return srv.Active() == 0 })
	if closed, err := fc.CloseSession(info.ID); err != nil || closed {
		t.Fatalf("closing a dead session: %v %v", closed, err)
	}

	// Saturate video 1 (one 2-slot holder); the third open is refused with
	// the rejected outcome but no transport error.
	for i := 0; i < 2; i++ {
		if _, out, err := fc.Open(1); err != nil || out != OutcomeAccepted {
			t.Fatalf("fill %d: outcome %q, err %v", i, out, err)
		}
	}
	if _, out, err := fc.Open(1); err != nil || out != OutcomeRejected {
		t.Fatalf("saturated open: outcome %q, err %v", out, err)
	}

	// Invalid video id: a 400 with an error payload, still no transport
	// error surprises, and the connection stays usable.
	if _, _, err := fc.Open(99); err == nil {
		t.Fatal("open of an unknown video succeeded")
	}
	if _, out, err := fc.Open(0); err != nil || out != OutcomeAccepted {
		t.Fatalf("post-error open: outcome %q, err %v", out, err)
	}

	if got := ing.Stats().Decisions(); got < 6 {
		t.Fatalf("decisions counter = %d, want ≥6", got)
	}
}

// TestIngressPipelining queues several requests into one flush and checks
// the responses come back complete and in order on the same connection.
func TestIngressPipelining(t *testing.T) {
	_, _, addr := newTestIngress(t, Config{}, IngressConfig{})
	fc, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	const n = 5 // capacity for video 1 is 2: expect 2 accepts then 3 rejects
	for i := 0; i < n; i++ {
		fc.QueueOpen(1)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	for i := 0; i < n; i++ {
		_, out, err := fc.ReadOpen()
		if err != nil {
			t.Fatalf("pipelined response %d: %v", i, err)
		}
		switch out {
		case OutcomeAccepted:
			accepted++
		case OutcomeRejected:
			rejected++
		}
		if rejected > 0 && out == OutcomeAccepted {
			t.Fatal("accept after reject: pipelined responses out of order")
		}
	}
	if accepted != 2 || rejected != 3 {
		t.Fatalf("accepted %d rejected %d, want 2 and 3", accepted, rejected)
	}
}

func TestIngressBatch(t *testing.T) {
	srv, ing, addr := newTestIngress(t, Config{}, IngressConfig{MaxBatch: 8})
	fc, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	res, err := fc.OpenBatch([]int{1, 1, 1, 2, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("batch returned %d results, want 6", len(res))
	}
	accepted := 0
	for i, r := range res {
		if r.Outcome == OutcomeAccepted {
			accepted++
			if r.Info.ID == 0 {
				t.Fatalf("result %d accepted without a session id", i)
			}
		}
	}
	if accepted != 4 { // 2 slots each on v1's and v2's holders
		t.Fatalf("batch accepted %d, want 4", accepted)
	}
	if got := ing.Stats().Decisions(); got != 6 {
		t.Fatalf("decisions counter = %d, want 6", got)
	}

	// Close every accepted session pipelined; bandwidth returns to zero.
	ncl := 0
	for _, r := range res {
		if r.Outcome == OutcomeAccepted {
			fc.QueueClose(r.Info.ID)
			ncl++
		}
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ncl; i++ {
		ok, err := fc.ReadClose()
		if err != nil || !ok {
			t.Fatalf("pipelined close %d: %v %v", i, ok, err)
		}
	}
	waitUntil(t, 2*time.Second, "bandwidth drain", func() bool {
		return srv.Cluster().Used(0) == 0 && srv.Cluster().Used(1) == 0
	})

	// A batch beyond the cap is refused outright, settling no decisions.
	if _, err := fc.OpenBatch(make([]int, 9), nil); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized batch error = %v, want cap refusal", err)
	}
	if got := ing.Stats().Decisions(); got != 6 {
		t.Fatalf("decisions counter after refused batch = %d, want 6", got)
	}
}

// TestIngressFallback routes a non-hot-path request through the stitched-in
// net/http handler and checks an ordinary stdlib client can consume it.
func TestIngressFallback(t *testing.T) {
	_, ing, addr := newTestIngress(t, Config{}, IngressConfig{})
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "vod_http_requests_total") {
		t.Fatal("/metrics is missing the vod_http_* ingress families")
	}
	if ing.Stats().Fallbacks() != 1 {
		t.Fatalf("fallbacks counter = %d, want 1", ing.Stats().Fallbacks())
	}
}

// rawRoundTrip writes a raw request over a fresh connection and decodes the
// first response with the stdlib parser.
func rawRoundTrip(t *testing.T, addr, raw string) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response to %q: %v", raw, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIngressProtocolErrors(t *testing.T) {
	_, _, addr := newTestIngress(t, Config{}, IngressConfig{MaxBody: 64})
	for _, tc := range []struct {
		name, raw  string
		wantStatus int
	}{
		{"malformed request line", "garbage\r\n\r\n", http.StatusBadRequest},
		{"chunked body refused", "POST /open HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", http.StatusNotImplemented},
		{"expect refused", "POST /open HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 11\r\n\r\n", http.StatusExpectationFailed},
		{"bad content-length", "POST /open HTTP/1.1\r\nContent-Length: ten\r\n\r\n", http.StatusBadRequest},
		{"oversized body", "POST /open HTTP/1.1\r\nContent-Length: 100\r\n\r\n", http.StatusRequestEntityTooLarge},
		{"body is not json", "POST /open HTTP/1.1\r\nContent-Length: 3\r\n\r\nhi!", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := rawRoundTrip(t, addr, tc.raw)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
		})
	}
}

// TestIngressKeepAliveAfterBadBody: a malformed body fails that one request,
// not the connection — the next pipelined request on the same connection
// still settles.
func TestIngressKeepAliveAfterBadBody(t *testing.T) {
	_, _, addr := newTestIngress(t, Config{}, IngressConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bad := `{"video":"x"}`
	good := `{"video":0}`
	raw := fmt.Sprintf("POST /open HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(bad), bad) +
		fmt.Sprintf("POST /open HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(good), good)
	if _, err := conn.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, want := range []int{http.StatusBadRequest, http.StatusOK} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("response %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
}

// TestIngressChaosExactlyOnce is the satellite keep-alive/-race coverage:
// concurrent clients drive pipelined batches across every listener while a
// backend fails and recovers mid-burst. Every queued element settles exactly
// one decision, every accepted session is closed exactly once, and no
// bandwidth leaks on any backend.
func TestIngressChaosExactlyOnce(t *testing.T) {
	listeners := 1
	if reusePortAvailable {
		listeners = 2
	}
	srv, ing, addr := newTestIngress(t, Config{Shards: 2},
		IngressConfig{Listeners: listeners, MaxBatch: 64})

	const clients = 8
	const rounds = 30
	batch := []int{0, 1, 2, 0, 1, 2, 0, 1}
	sent := make([]int64, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			fc, err := DialFast(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer fc.Close()
			var open []int64
			var res []OpenResult
			for r := 0; r < rounds; r++ {
				res, err = fc.OpenBatch(batch, res[:0])
				if err != nil {
					t.Errorf("client %d round %d: %v", cl, r, err)
					return
				}
				sent[cl] += int64(len(batch))
				for _, or := range res {
					if or.Outcome == OutcomeAccepted {
						open = append(open, or.Info.ID)
					}
				}
				// Keep a rolling window open so evictions race live closes.
				for len(open) > 16 {
					if _, err := fc.CloseSession(open[0]); err != nil {
						t.Errorf("client %d close: %v", cl, err)
						return
					}
					open = open[1:]
				}
			}
			for _, id := range open {
				fc.QueueClose(id)
			}
			if err := fc.Flush(); err != nil {
				t.Errorf("client %d final flush: %v", cl, err)
				return
			}
			for range open {
				if _, err := fc.ReadClose(); err != nil {
					t.Errorf("client %d final close: %v", cl, err)
					return
				}
			}
		}(cl)
	}

	// Mid-burst fault: fail backend 0 (evicting and failing over its
	// sessions), let the burst continue degraded, then recover it.
	time.Sleep(5 * time.Millisecond)
	if _, _, err := srv.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := srv.RecoverBackend(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var total int64
	for _, n := range sent {
		total += n
	}
	if got := ing.Stats().Decisions(); got != total {
		t.Fatalf("decisions settled = %d, elements sent = %d: not exactly-once", got, total)
	}
	waitUntil(t, 2*time.Second, "zero leaked bandwidth", func() bool {
		return srv.Active() == 0 &&
			srv.Cluster().Used(0) == 0 && srv.Cluster().Used(1) == 0
	})
}

// TestAdmissionPathAllocs is the gated allocation guard over the full
// server-side hot path — decode → decide → encode, open then close — once
// buffers and pools are warm. The only allocation budget is the ≤2 the
// session bookkeeping is allowed; parse and encode must contribute zero.
func TestAdmissionPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ing, err := NewIngress(srv, IngressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cs := &connState{}
	st := &ing.stats.ls[0]
	openBody := []byte(`{"video":0}`)
	var closeBody []byte
	roundTrip := func() {
		cs.out = cs.out[:0]
		ing.fastOpen(cs, st, openBody, false)
		id, _, ok := parseInt(cs.resp, len(`{"id":`))
		if !ok {
			t.Fatalf("open response %q has no canonical id", cs.resp)
		}
		closeBody = append(closeBody[:0], `{"id":`...)
		closeBody = strconv.AppendInt(closeBody, id, 10)
		closeBody = append(closeBody, '}')
		cs.out = cs.out[:0]
		ing.fastClose(cs, st, closeBody, false)
	}
	for i := 0; i < 100; i++ { // warm buffers and pools
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, roundTrip)
	if allocs > 2 {
		t.Fatalf("admission round trip allocates %.1f objects/op, budget is 2", allocs)
	}
}

func BenchmarkAdmissionPath(b *testing.B) {
	srv, err := New(testProblem(b, 0), testLayout(b), Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	ing, err := NewIngress(srv, IngressConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cs := &connState{}
	st := &ing.stats.ls[0]
	openBody := []byte(`{"video":0}`)
	var closeBody []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.out = cs.out[:0]
		ing.fastOpen(cs, st, openBody, false)
		id, _, ok := parseInt(cs.resp, len(`{"id":`))
		if !ok {
			b.Fatalf("open response %q has no canonical id", cs.resp)
		}
		closeBody = append(closeBody[:0], `{"id":`...)
		closeBody = strconv.AppendInt(closeBody, id, 10)
		closeBody = append(closeBody, '}')
		cs.out = cs.out[:0]
		ing.fastClose(cs, st, closeBody, false)
	}
}

// FuzzIngressConn throws arbitrary bytes — truncated requests, oversized
// fields, pipelined garbage, and the occasional valid request the corpus
// seeds — at a live ingress connection and requires the daemon to survive:
// no panic, no hang, the connection always reaches EOF once the client
// stops writing.
func FuzzIngressConn(f *testing.F) {
	for _, s := range []string{
		"POST /open HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"video\":0}",
		"POST /open HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"video\":0}POST /close HTTP/1.1\r\nContent-Length: 8\r\n\r\n{\"id\":1}",
		"POST /open/batch HTTP/1.1\r\nContent-Length: 22\r\n\r\n{\"videos\":[0,1,2,0,1]}",
		"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /open HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
		"POST /open HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
		"garbage\r\n\r\n",
		"POST /open HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"video\"",
		"\x00\x01\x02\r\n",
		strings.Repeat("A", 300) + "\r\n",
	} {
		f.Add([]byte(s))
	}
	// High compression: any valid open the fuzzer stumbles into expires in
	// milliseconds, so state never accumulates across executions.
	srv, err := New(testProblem(f, 0), testLayout(f), Config{Compress: 1e5})
	if err != nil {
		f.Fatal(err)
	}
	ing, err := NewIngress(srv, IngressConfig{MaxBody: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	addr, err := ing.Start("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ing.Close()
		srv.Shutdown()
	})
	target := addr.String()
	f.Fuzz(func(t *testing.T, b []byte) {
		conn, err := net.Dial("tcp", target)
		if err != nil {
			t.Skip("dial refused under load")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(b)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite() // EOF tells the server this client is done
		}
		if _, err := io.Copy(io.Discard, conn); err != nil {
			// Read errors (reset on protocol violations) are fine; only a
			// deadline expiry would indicate a wedged connection.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("connection wedged after %q", b)
			}
		}
	})
}
