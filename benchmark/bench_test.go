package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Same seed, same inputs: the schedule and the video sequences are pure
// functions of the seed.
func TestInputsRepeatFromSeed(t *testing.T) {
	a, ta, err := poissonSchedule(7, churnRate, 1, churnCompress, 100, paperTheta)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := poissonSchedule(7, churnRate, 1, churnCompress, 100, paperTheta)
	if err != nil {
		t.Fatal(err)
	}
	var ja, jb strings.Builder
	if err := ta.Save(&ja); err != nil {
		t.Fatal(err)
	}
	if err := tb.Save(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() || !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, _, err := poissonSchedule(8, churnRate, 1, churnCompress, 100, paperTheta)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same trace")
	}
	if !reflect.DeepEqual(videoSequence(7, 0, 100, 1000, paperTheta), videoSequence(7, 0, 100, 1000, paperTheta)) {
		t.Fatal("same seed produced different video sequences")
	}
	if reflect.DeepEqual(videoSequence(7, 0, 100, 1000, paperTheta), videoSequence(7, 1, 100, 1000, paperTheta)) {
		t.Fatal("the two connections draw the same video sequence")
	}
}

// The open-loop schedule is Poisson at the asked rate: the count matches and
// the gaps are exponential (mean 1/rate, coefficient of variation 1).
func TestScheduleIsPoissonAtTheAskedRate(t *testing.T) {
	const seconds = 4.0
	sched, _, err := poissonSchedule(3, churnRate, seconds, churnCompress, 100, paperTheta)
	if err != nil {
		t.Fatal(err)
	}
	want := churnRate * seconds
	if got := float64(len(sched)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("%g requests in %g s, want about %g", got, seconds, want)
	}
	var sum, sumSq float64
	for i := 1; i < len(sched); i++ {
		if sched[i].at < sched[i-1].at {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		gap := (sched[i].at - sched[i-1].at).Seconds()
		sum += gap
		sumSq += gap * gap
	}
	n := float64(len(sched) - 1)
	mean := sum / n
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	if math.Abs(mean*churnRate-1) > 0.03 || math.Abs(cv-1) > 0.05 {
		t.Fatalf("gaps have mean %g s (want %g) and coefficient of variation %g (want 1)", mean, 1/churnRate, cv)
	}
}

// Latency runs from the due time, so a request queued behind a stall pays for
// it; lateness is only what the generator itself added.
func TestLatencyIsTakenFromDueTime(t *testing.T) {
	ms := time.Millisecond
	shots := make([]shot, 3*genConns)
	// Connection 0: the daemon stalls the first reply 30 ms. The second
	// request, due at 1 ms, goes out the moment the connection is free, and
	// the third, due at 2 ms, right behind it: late for the client, but not
	// through the generator.
	shots[0] = shot{due: 0, sent: 0, done: 30 * ms}
	shots[genConns] = shot{due: 1 * ms, sent: 30 * ms, done: 31 * ms}
	shots[2*genConns] = shot{due: 2 * ms, sent: 31 * ms, done: 32 * ms}
	// Connection 1: the generator oversleeps the first send by 2 ms; the
	// request due at 1 ms queues behind it, which is the generator's doing
	// too; the one due at 9 ms is on time.
	shots[1] = shot{due: 0, sent: 2 * ms, done: 3 * ms}
	shots[genConns+1] = shot{due: 1 * ms, sent: 3 * ms, done: 4 * ms}
	shots[2*genConns+1] = shot{due: 9 * ms, sent: 9 * ms, done: 10 * ms}
	st := summarize(shots)
	if want := []float64{30000, 3000, 30000, 3000, 30000, 1000}; !reflect.DeepEqual(st.latency, want) {
		t.Errorf("latency from due time %v µs, want %v", st.latency, want)
	}
	if want := []float64{0, 2000, 0, 2000, 0, 0}; !reflect.DeepEqual(st.lateness, want) {
		t.Errorf("generator lateness %v µs, want %v", st.lateness, want)
	}
	if st.ok != 3 {
		t.Errorf("%d requests within %s of their due time, want 3", st.ok, sloLimit)
	}
	if want := 1.0; math.Abs(st.achieved-want) > 1e-9 {
		t.Errorf("achieved rate ratio %g, want %g", st.achieved, want)
	}
}

// Self time is a span's duration minus what its children cover.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "b.overrun", Start: 80, End: 95, Parent: 3}, // clipped to its parent
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	if got, want := selfTimes(spans), []int64{30, 20, 10, 30, 15, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	tr := newTracer("test")
	k := tr.newTrack()
	outer := k.begin("outer")
	inner := k.begin("inner")
	k.end(inner)
	k.end(outer)
	if k.spans[1].Parent != 0 || k.spans[0].Parent != -1 {
		t.Fatalf("nesting lost: %+v", k.spans)
	}
	st := tr.stats()
	if st["outer"].Self+st["inner"].Total != st["outer"].Total {
		t.Fatalf("outer self %v + inner %v != outer total %v", st["outer"].Self, st["inner"].Total, st["outer"].Total)
	}
	var untraced *track
	untraced.end(untraced.begin("nothing")) // the untraced pass records nothing and must not crash
}

// doctoredServer answers every request on one connection with reply.
func doctoredServer(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			// Requests here carry no body worth reading: skip to the blank line
			// and the fixed-size canonical body that follows.
			clen := 0
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if line == "\r\n" {
					break
				}
				fmt.Sscanf(line, "Content-Length: %d", &clen)
			}
			if _, err := br.Discard(clen); err != nil {
				return
			}
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

const goodSession = `{"id":17,"video":5,"server":2,"source":2,"rate_bps":4000000,"redirected":false,"expires_in_s":5400}`

// The validator accepts the canonical replies and flags doctored ones.
func TestValidatorFlagsDoctoredReplies(t *testing.T) {
	if d, rest, err := parseDecision([]byte(goodSession), 5, 8); err != nil || !d.accepted || d.id != 17 || len(rest) != 0 {
		t.Fatalf("canonical session rejected: %+v %q %v", d, rest, err)
	}
	if d, _, err := parseDecision(rejectedBody, 5, 8); err != nil || d.accepted {
		t.Fatalf("canonical refusal rejected: %+v %v", d, err)
	}
	for name, body := range map[string]string{
		"another video":    strings.Replace(goodSession, `"video":5`, `"video":6`, 1),
		"server off range": strings.Replace(goodSession, `"server":2`, `"server":8`, 1),
		"no rate":          strings.Replace(goodSession, `"rate_bps":4000000`, `"rate_bps":0`, 1),
		"truncated":        goodSession[:40],
		"reordered keys":   `{"video":5,"id":17,"server":2,"source":2,"rate_bps":4000000,"redirected":false,"expires_in_s":5400}`,
		"unknown outcome":  `{"outcome":"maybe"}`,
	} {
		if _, _, err := parseDecision([]byte(body), 5, 8); err == nil {
			t.Errorf("%s: doctored decision %s passed", name, body)
		}
	}

	// Through the socket: a daemon answering for another video, and a batch
	// answered with fewer decisions than videos, each fail the operation.
	tl := &tally{}
	c, err := dial(doctoredServer(t, strings.Replace(goodSession, `"video":5`, `"video":6`, 1)), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.queueOpen(5)
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.readOpen(5); err == nil {
		t.Fatal("a reply for another video passed")
	} else {
		tl.fail("%v", err)
	}
	b, err := dial(doctoredServer(t, "["+goodSession+"]"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.queueBatch([]int{5, 5}, nil)
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.readBatch([]int{5, 5}, nil); err == nil {
		t.Fatal("a batch of two answered with one decision passed")
	} else {
		tl.fail("%v", err)
	}
	res := runResult{Failed: tl.failed.Load(), Correct: tl.failed.Load() == 0}
	if res.Failed != 2 || exitCode(res) == 0 {
		t.Fatalf("doctored replies left ops_failed %d and exit code %d", res.Failed, exitCode(res))
	}
}

// A session left open fails the leak check; closing it passes.
func TestLeakCheckFlagsSessionLeftOpen(t *testing.T) {
	d, err := startDaemon(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	c, err := dial(d.addr, d.p.N())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.queueOpen(5)
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := c.readOpen(5)
	if err != nil || !dec.accepted {
		t.Fatalf("open on an empty cluster: %+v %v", dec, err)
	}
	leaked := &tally{}
	d.checkSettled(leaked)
	if leaked.failed.Load() == 0 {
		t.Fatal("a session left open passed the leak check")
	}
	if res := (runResult{Failed: leaked.failed.Load()}); exitCode(res) == 0 {
		t.Fatal("a failed leak check exits 0")
	}
	c.queueClose(dec.id)
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.readClose(); err != nil {
		t.Fatal(err)
	}
	clean := &tally{}
	d.checkSettled(clean)
	if clean.failed.Load() != 0 {
		t.Fatalf("leak check failed on a settled daemon: %v", clean.msgs)
	}
}

// -compare applies each metric's bound and says unresolved, not unchanged,
// when the run-to-run spread is wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "latency", Unit: "us", Better: "lower", Bound: 0.10}
	tight := func(v float64) reported { return reported{Value: v, Min: v * 0.99, Max: v * 1.01, N: 5} }
	wide := func(v float64) reported { return reported{Value: v, Min: v * 0.9, Max: v * 1.1, N: 5} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b reported
		want verdict
	}{
		{"same", rate, tight(100), tight(101), unchanged},
		{"slower beyond the bound", rate, tight(100), tight(85), regressed},
		{"faster beyond the bound", rate, tight(100), tight(120), improved},
		{"within the bound but noisy", rate, wide(100), tight(97), unresolved},
		{"latency up beyond the bound", lat, tight(10), tight(12), regressed},
		{"latency down", lat, tight(10), tight(8), improved},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	run := func(rate float64, failed int64) allResults {
		var r allResults
		for _, w := range workloads {
			m := map[string]reported{}
			for _, def := range endToEnd {
				m[def.Name] = tight(rate)
			}
			r.Runs = append(r.Runs, runResult{Workload: w.name, Attempted: 1000, Failed: failed, Metrics: m})
		}
		return r
	}
	if code := compareResults(io.Discard, run(100, 0), run(100, 0)); code != 0 {
		t.Errorf("identical results compare with exit code %d", code)
	}
	if code := compareResults(io.Discard, run(100, 0), run(100, 1)); code == 0 {
		t.Error("a higher failed_ratio compares with exit code 0")
	}
	// Half the rate is beyond every bound, for the metrics where higher is better.
	if code := compareResults(io.Discard, run(100, 0), run(50, 0)); code == 0 {
		t.Error("a regression beyond the bound compares with exit code 0")
	}
}
