package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"vodcluster/internal/core"
)

// owed is the reply the ingress owes one request, by the oracle.
type owed uint8

const (
	owedAdmission owed = iota // an admission decision for a well-formed body
	owedBadBody               // 400 on a connection that stays open
	owedRefusal               // 4xx (or the 501 of any Transfer-Encoding), then close
	owedFallback              // Handler()'s reply, then close
)

// after is what may follow the owed replies.
type after uint8

const (
	afterNothing   after = iota // the connection ends
	afterAtMostOne              // the input ended mid-request: one reply at most
	afterAnything               // Connection: close, which the ingress reads more narrowly
)

// expectation is one request's owed reply.
type expectation struct {
	owed owed
	r    route
	n    int    // a batch's size
	why  string // for a refusal: the oracle's error, or the stricter case
	last bool   // Connection: close
}

// stricter names why the ingress refuses an admission request that
// net/http accepts, or "" when it does not. Each is deliberate:
func stricter(req *http.Request, head []byte) string {
	switch {
	case len(req.TransferEncoding) > 0: // 501: admission bodies are never chunked
		return "Transfer-Encoding"
	case req.Header["Expect"] != nil: // 417: admission bodies are sent at once
		return "Expect"
	case bytes.Contains(head, []byte("\n ")) || bytes.Contains(head, []byte("\n\t")):
		return "obs-fold continuation line" // RFC 9112 §5.2: a server may reject it
	case req.ContentLength > maxBody: // 413 before reading the body
		return "body above 1 MiB"
	}
	for _, v := range req.Header["Content-Length"] {
		if len(trimSpaces([]byte(v))) > 9 { // atoiBytes reads nine digits
			return "Content-Length of ten digits or more"
		}
	}
	return ""
}

// oracle walks b with http.ReadRequest, the stdlib parser, and returns the
// replies the ingress owes and what may follow them. A request on any other
// route or protocol than an HTTP/1.1 admission goes to the fallback, which
// answers it and closes the connection, where net/http would keep an
// HTTP/1.1 or HTTP/9.9 connection open: the one stricter case outside the
// admission routes.
func oracle(b []byte) ([]expectation, after) {
	rd := bytes.NewReader(b)
	br := bufio.NewReader(rd)
	var want []expectation
	for {
		start := len(b) - rd.Len() - br.Buffered()
		req, err := http.ReadRequest(br)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(req.Body)
		}
		switch {
		case err == io.EOF && start == len(b):
			return want, afterNothing
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || err != nil && !headEnds(b[start:]):
			return want, afterAtMostOne
		case err != nil:
			return append(want, expectation{owed: owedRefusal, why: err.Error()}), afterNothing
		}
		r := routeNone
		if req.Method == "POST" && req.Proto == "HTTP/1.1" {
			r = map[string]route{"/open": routeOpen, "/open/batch": routeBatch, "/close": routeClose}[req.RequestURI]
		}
		if r == routeNone {
			return append(want, expectation{owed: owedFallback}), afterNothing
		}
		head := b[start : len(b)-rd.Len()-br.Buffered()-len(body)]
		if why := stricter(req, head); why != "" {
			return append(want, expectation{owed: owedRefusal, why: why}), afterNothing
		}
		e := expectation{owed: owedAdmission, r: r, last: req.Close}
		switch r {
		case routeOpen:
			if v, err := parseOpenBody(body); err != nil || v < 0 || v >= 3 {
				e.owed = owedBadBody
			}
		case routeBatch:
			vids, err := parseBatchBody(body, nil)
			if err != nil || len(vids) > defaultMaxBatch {
				e.owed = owedBadBody
			}
			e.n = len(vids)
		case routeClose:
			if _, err := parseCloseBody(body); err != nil {
				e.owed = owedBadBody
			}
		}
		if want = append(want, e); req.Close {
			return want, afterAnything
		}
	}
}

// headEnds reports whether rest holds a whole request head as the ingress
// reads one, lines up to '\n' ending at an empty line, so that it answers a
// head the oracle refuses rather than waiting for a line end.
func headEnds(rest []byte) bool {
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return false
		}
		if len(trimCRLF(rest[:i+1])) == 0 {
			return true
		}
		rest = rest[i+1:]
	}
}

// reply is one response the ingress sent.
type reply struct {
	status     int
	retryAfter bool
	close      bool
	body       []byte
}

// exchange writes b to a fresh connection, half-closes it and reads every
// response until the ingress closes.
func exchange(t *testing.T, addr string, b []byte) []reply {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Skip("dial refused under load")
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	br := bufio.NewReader(conn)
	var got []reply
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return got
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reading reply %d to %q: %v", len(got), b, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading reply %d's body to %q: %v", len(got), b, err)
		}
		got = append(got, reply{resp.StatusCode, resp.Header.Get("Retry-After") != "", resp.Close, body})
	}
}

// checkAdmission reports how reply g fails to answer admission request e.
func checkAdmission(e expectation, g reply) error {
	switch {
	case e.r == routeOpen && g.status == http.StatusOK && bytes.HasPrefix(g.body, []byte(`{"id":`)):
	case e.r == routeOpen && g.status == http.StatusServiceUnavailable && g.retryAfter:
	case e.r == routeClose && (g.status == http.StatusOK || g.status == http.StatusNotFound):
	case e.r == routeBatch && g.status == http.StatusOK:
		n := 0
		if err := splitJSONArray(g.body, func([]byte) error { n++; return nil }); err != nil || n != e.n {
			return fmt.Errorf("batch of %d answered %q", e.n, g.body)
		}
	default:
		return fmt.Errorf("status %d %q is no admission reply", g.status, g.body)
	}
	return nil
}

// FuzzIngressDifferential holds the ingress to net/http's request parser,
// http.ReadRequest, over the same bytes on one connection:
//
//   - every request the oracle accepts on an admission route with a
//     well-formed body gets an admission reply, in order;
//   - at the first request the oracle refuses, the ingress answers 4xx and
//     closes the connection, with nothing booked: every session still open
//     was announced in a reply, and the booked bandwidth is theirs.
//
// Where the ingress is deliberately stricter, stricter and oracle name the
// case, and the ingress refuses as at an oracle refusal.
func FuzzIngressDifferential(f *testing.F) {
	open := "POST /open HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"video\":0}"
	for _, s := range []string{
		// The two divergences the strict header rules closed: differing
		// duplicate Content-Length values, and a header line with no colon.
		"POST /open HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 11\r\n\r\n{\"video\":0}" + open,
		"POST /open HTTP/1.1\r\nContent-Length: 11\r\nX-Smuggle 1\r\n\r\n{\"video\":0}" + open,
		open + open + open,
		open + "POST /close HTTP/1.1\r\nContent-Length: 8\r\n\r\n{\"id\":1}",
		"POST /open/batch HTTP/1.1\r\nHost: x\r\nContent-Length: 22\r\n\r\n{\"videos\":[0,1,2,0,1]}" + open,
		"POST /open HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"video\":\"x\"}" + open,
		"POST /open HTTP/1.1\r\nConnection: close\r\nContent-Length: 11\r\n\r\n{\"video\":1}" + open,
		"POST /open HTTP/1.1\r\nHost: a\r\nHost: b\r\nContent-Length: 11\r\n\r\n{\"video\":0}",
		"POST /open HTTP/1.1\r\nX-A: b\x01\r\nContent-Length: 11\r\n\r\n{\"video\":0}",
		"POST /open HTTP/1.1\r\nX(A): b\r\nContent-Length: 11\r\n\r\n{\"video\":0}",
		"POST /open HTTP/1.1\r\nX-A: b\r\n c\r\nContent-Length: 11\r\n\r\n{\"video\":0}",
		"POST /open HTTP/9.9\r\nContent-Length: 11\r\n\r\n{\"video\":0}" + open,
		"POST /open HTTP/1.0\r\nContent-Length: 11\r\n\r\n{\"video\":0}" + open,
		"POST /open HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nb\r\n{\"video\":0}\r\n0\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" + open,
		"garbage\r\n\r\n" + open,
		"POST /open HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"vid",
	} {
		f.Add([]byte(s))
	}
	// Compress 1: a session outlives any run, so every booking is still
	// there to count when the connection ends.
	srv, err := New(testProblem(f, 0), testLayout(f), Config{})
	if err != nil {
		f.Fatal(err)
	}
	ing, err := NewIngress(srv, IngressConfig{Fallback: http.NotFoundHandler()})
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
	c := srv.Cluster()
	used := func() int64 { return c.Used(0) + c.Used(1) }
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			t.Skip("one write of at most 4 KiB keeps the exchange in one segment")
		}
		want, then := oracle(b)
		got := exchange(t, target, b)

		// Every session a reply announced, so the run can end them all.
		var ids []int64
		closed := 0
		for _, g := range got {
			switch {
			case bytes.HasPrefix(g.body, []byte(`{"id":`)):
				info, err := parseSessionInfoWire(g.body)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, info.ID)
			case bytes.HasPrefix(g.body, []byte("[")):
				splitJSONArray(g.body, func(elem []byte) error {
					if info, err := parseSessionInfoWire(elem); err == nil && info.ID > 0 {
						ids = append(ids, info.ID)
					}
					return nil
				})
			case string(g.body) == `{"outcome":"closed"}`:
				closed++
			}
		}
		defer func() {
			for _, id := range ids {
				srv.Close(id)
			}
			if n, u := srv.Active(), used(); n != 0 || u != 0 {
				t.Fatalf("after closing every announced session: %d active, %d bit/s booked", n, u)
			}
		}()
		if n := srv.Active(); n != int64(len(ids)-closed) {
			t.Fatalf("%d sessions active, replies announced %d and closed %d, for %q", n, len(ids), closed, b)
		}
		if u := used(); u != srv.Active()*int64(4*core.Mbps) {
			t.Fatalf("%d bit/s booked for %d sessions, for %q", u, srv.Active(), b)
		}

		for i, e := range want {
			if i >= len(got) {
				t.Fatalf("request %d of %q got no reply, owed %d (%s)", i, b, e.owed, e.why)
			}
			g := got[i]
			var err error
			switch e.owed {
			case owedAdmission:
				err = checkAdmission(e, g)
			case owedBadBody:
				if g.status != http.StatusBadRequest || g.close && !e.last {
					err = fmt.Errorf("status %d, close %v; want 400, closing only on Connection: close", g.status, g.close)
				}
			case owedRefusal:
				if g.status < 400 || g.status >= 500 && g.status != http.StatusNotImplemented || !g.close {
					err = fmt.Errorf("status %d, close %v; want 4xx and close (%s)", g.status, g.close, e.why)
				}
			case owedFallback:
				if !g.close {
					err = errors.New("fallback reply without Connection: close")
				}
			}
			if err != nil {
				t.Fatalf("request %d of %q: %v", i, b, err)
			}
		}
		extra := len(got) - len(want)
		if then == afterNothing && extra > 0 || then == afterAtMostOne && extra > 1 {
			t.Fatalf("%d replies to %q after the %d owed; the first: %d %q", extra, b, len(want), got[len(want)].status, got[len(want)].body)
		}
	})
}
