package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"vodcluster/internal/obs"
)

// TestServerTracesLifecycle drives one accept → close and one rejection
// through a traced daemon and checks the ring holds the matching lifecycle
// events with wall-clock timestamps and a decision span on the admit.
func TestServerTracesLifecycle(t *testing.T) {
	tr := obs.NewTracer(256)
	srv, base := newTestServer(t, Config{Tracer: tr})
	client := NewClient(base)
	defer client.Close()
	ctx := context.Background()

	info, outcome, _, err := client.Request(ctx, 0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request: outcome %q, err %v", outcome, err)
	}
	if err := client.CloseSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "session teardown", func() bool { return srv.Active() == 0 })

	// Saturate v1's single 2-slot holder, then one rejection.
	for i := 0; i < 2; i++ {
		if _, outcome, _, err := client.Request(ctx, 1); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("fill %d: outcome %q, err %v", i, outcome, err)
		}
	}
	if _, outcome, _, err := client.Request(ctx, 1); err != nil || outcome != OutcomeRejected {
		t.Fatalf("overload request: outcome %q, err %v", outcome, err)
	}

	counts := map[obs.Kind]int{}
	for _, e := range tr.Snapshot() {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KindAdmit:
			if e.Session == 0 || e.DurNS <= 0 {
				t.Fatalf("admit without session id or decision span: %+v", e)
			}
		case obs.KindTear:
			if e.Detail != "canceled" {
				t.Fatalf("client-closed session should tear as canceled: %+v", e)
			}
		}
	}
	if counts[obs.KindArrive] != 4 || counts[obs.KindAdmit] != 3 ||
		counts[obs.KindReject] != 1 || counts[obs.KindTear] != 1 {
		t.Fatalf("event counts = %v; want 4 arrive, 3 admit, 1 reject, 1 tear", counts)
	}
}

// TestTraceDumpEndpoint: GET /debug/trace serves the JSON dump, and
// ?format=chrome serves a trace_event envelope; without a tracer the route
// does not exist.
func TestTraceDumpEndpoint(t *testing.T) {
	tr := obs.NewTracer(256)
	_, base := newTestServer(t, Config{Tracer: tr})
	client := NewClient(base)
	defer client.Close()
	if _, outcome, _, err := client.Request(context.Background(), 0); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("request: outcome %q, err %v", outcome, err)
	}

	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dump struct {
		Total  uint64            `json:"total_events"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, body)
	}
	if dump.Total < 2 || len(dump.Events) < 2 {
		t.Fatalf("dump too small: total %d, %d events", dump.Total, len(dump.Events))
	}

	resp, err = http.Get(base + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome dump not valid JSON: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) < 2 {
		t.Fatalf("chrome dump has %d events", len(chrome.TraceEvents))
	}

	_, plain := newTestServer(t, Config{})
	resp, err = http.Get(plain + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced daemon served /debug/trace with %d, want 404", resp.StatusCode)
	}
}
