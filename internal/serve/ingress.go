package serve

// Sharded HTTP ingress (DESIGN.md §16): N SO_REUSEPORT listeners bound to
// one address, each running its own accept loop, so inbound connections
// spread across kernel accept queues instead of funneling through one
// listener goroutine. Each connection is served by one goroutine running a
// hand-rolled HTTP/1.1 loop: pooled read/write buffers, keep-alive with
// pipelining (responses accumulate while more requests are already
// buffered, and flush before the loop would block), and the wire.go codecs
// on the /open, /open/batch, and /close hot paths — no encoding/json, no
// net/http machinery, no per-request goroutine. Admissions call
// Server.OpenRetry, which decides and commits on the connection's own
// goroutine. Every other route (admin, /metrics, /fault, …) is replayed into
// a net/http fallback handler and answered with Connection: close; admin
// traffic is rare enough that correctness beats reuse there.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

const (
	// defaultMaxBatch caps videos per POST /open/batch request.
	defaultMaxBatch = 256
	// defaultMaxBody caps a hot-path request body; larger bodies are
	// refused with 413 and the connection closed.
	defaultMaxBody = 1 << 20
	// flushBytes forces a flush mid-pipeline once this many response bytes
	// accumulate, bounding per-connection buffer growth under deep
	// pipelining.
	flushBytes = 32 << 10
)

// IngressConfig tunes the sharded ingress.
type IngressConfig struct {
	// Listeners is the number of SO_REUSEPORT accept loops; 0 means 1.
	// Values above 1 require a platform with SO_REUSEPORT support (Linux).
	Listeners int
	// MaxBatch caps videos per batch request; 0 means 256.
	MaxBatch int
	// MaxBody caps a hot-path request body in bytes; 0 means 1 MiB.
	MaxBody int
	// Fallback serves every request that is not a hot-path admission call.
	// Nil uses the server's own Handler(). The fallback response is sent
	// with Connection: close.
	Fallback http.Handler
}

// Ingress is the sharded, allocation-free HTTP front of a Server. Create
// with NewIngress, bind with Start, stop with Close.
type Ingress struct {
	s        *Server
	fallback http.Handler
	maxBatch int
	maxBody  int
	stats    *HTTPStats

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg      sync.WaitGroup
	bufPool sync.Pool // *connState
}

// connState is the pooled per-connection working set: the read buffer and
// the response, body, and batch scratch slices, so a warm connection serves
// requests without touching the allocator.
type connState struct {
	br   *bufio.Reader
	out  []byte // pending (possibly pipelined) response bytes
	body []byte // request-body scratch
	resp []byte // response-body scratch
	vids []int  // batch-video scratch
}

// NewIngress builds the ingress; Start binds and serves.
func NewIngress(s *Server, cfg IngressConfig) (*Ingress, error) {
	n := cfg.Listeners
	if n <= 0 {
		n = 1
	}
	if n > 1 && !reusePortAvailable {
		return nil, fmt.Errorf("serve: %d ingress listeners need SO_REUSEPORT, unavailable on this platform; run with 1", n)
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	fb := cfg.Fallback
	if fb == nil {
		fb = s.Handler()
	}
	return &Ingress{
		s: s, fallback: fb,
		maxBatch: maxBatch, maxBody: maxBody,
		stats: NewHTTPStats(n),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Stats exposes the per-listener instrument panel.
func (g *Ingress) Stats() *HTTPStats { return g.stats }

// Start binds every listener to addr and starts the accept loops. With
// addr's port 0 the first bind picks the port and the remaining listeners
// join it, so "127.0.0.1:0" works for tests and benchmarks. The per-shard
// counters attach to the server's /metrics panel as vod_http_* families.
func (g *Ingress) Start(addr string) (net.Addr, error) {
	n := len(g.stats.ls)
	ln0, err := listenReusePort(addr)
	if err != nil {
		return nil, err
	}
	lns := []net.Listener{ln0}
	for i := 1; i < n; i++ {
		ln, err := listenReusePort(ln0.Addr().String())
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("serve: ingress listener %d: %w", i, err)
		}
		lns = append(lns, ln)
	}
	g.mu.Lock()
	g.lns = lns
	g.mu.Unlock()
	g.s.met.AttachHTTP(g.stats)
	for i, ln := range lns {
		g.wg.Add(1)
		go g.acceptLoop(i, ln)
	}
	return ln0.Addr(), nil
}

// Addr returns the bound address (nil before Start).
func (g *Ingress) Addr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.lns) == 0 {
		return nil
	}
	return g.lns[0].Addr()
}

// Close stops the accept loops, closes every live connection, and waits for
// the connection goroutines to exit.
func (g *Ingress) Close() {
	g.mu.Lock()
	g.closed = true
	lns := g.lns
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	g.wg.Wait()
}

// acceptLoop is one listener shard: accept, tune, hand the connection its
// serving goroutine.
func (g *Ingress) acceptLoop(li int, ln net.Listener) {
	defer g.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient accept error (e.g. EMFILE burst)
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		g.stats.ls[li].conns.Add(1)
		g.wg.Add(1)
		go g.serveConn(li, conn)
	}
}

func (g *Ingress) getState(conn net.Conn) *connState {
	if v := g.bufPool.Get(); v != nil {
		cs := v.(*connState)
		cs.br.Reset(conn)
		cs.out, cs.body, cs.resp = cs.out[:0], cs.body[:0], cs.resp[:0]
		cs.vids = cs.vids[:0]
		return cs
	}
	return &connState{br: bufio.NewReaderSize(conn, 16<<10)}
}

// serveConn is the per-connection request loop. The flush rule is the
// pipelining contract: a pending response is written out whenever no
// further request bytes are already buffered (the next read would block on
// a client that is itself waiting for us) or the pending bytes passed the
// flush threshold.
func (g *Ingress) serveConn(li int, conn net.Conn) {
	defer g.wg.Done()
	cs := g.getState(conn)
	defer func() {
		g.bufPool.Put(cs)
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close()
	}()
	for {
		if len(cs.out) > 0 && (cs.br.Buffered() == 0 || len(cs.out) >= flushBytes) {
			if _, err := conn.Write(cs.out); err != nil {
				return
			}
			cs.out = cs.out[:0]
		}
		if !g.serveOne(li, conn, cs) {
			if len(cs.out) > 0 {
				conn.Write(cs.out)
			}
			return
		}
	}
}

// hot-path routes.
type route uint8

const (
	routeNone route = iota
	routeOpen
	routeBatch
	routeClose
)

// serveOne reads and answers one request, appending the response to cs.out.
// It returns false when the connection must close (read error, protocol
// violation, Connection: close, or a fallback-handled request).
func (g *Ingress) serveOne(li int, conn net.Conn, cs *connState) bool {
	line, err := cs.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			g.appendReply(cs, http.StatusRequestHeaderFieldsTooLarge,
				appendOutcome(cs.resp[:0], "", "request line too long"), true, false)
		}
		return false // EOF between requests is the normal end of keep-alive
	}
	start := g.s.nowNS()
	st := &g.stats.ls[li]
	method, path, ok := parseRequestLine(line)
	if !ok {
		st.parseErrors.Add(1)
		g.appendReply(cs, http.StatusBadRequest,
			appendOutcome(cs.resp[:0], "", "malformed request line"), true, false)
		return false
	}
	r := routeNone
	if string(method) == "POST" {
		switch string(path) {
		case "/open":
			r = routeOpen
		case "/open/batch":
			r = routeBatch
		case "/close":
			r = routeClose
		}
	}
	if r == routeNone {
		st.fallbacks.Add(1)
		g.serveFallback(conn, cs, line)
		return false
	}

	// clenDigits is the length of the first Content-Length value, -1 before
	// one is seen: with atoiBytes's plain digits, two values are the same
	// text exactly when their numbers and lengths agree.
	clen, clenDigits, connClose := 0, -1, false
	for {
		h, err := cs.br.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				g.appendReply(cs, http.StatusRequestHeaderFieldsTooLarge,
					appendOutcome(cs.resp[:0], "", "header too long"), true, false)
			}
			return false
		}
		h = trimCRLF(h)
		if len(h) == 0 {
			break
		}
		if bytes.IndexByte(h, ':') < 0 {
			st.parseErrors.Add(1)
			g.appendReply(cs, http.StatusBadRequest,
				appendOutcome(cs.resp[:0], "", "malformed header line"), true, false)
			return false
		}
		if v, ok := headerValue(h, "content-length"); ok {
			v = trimSpaces(v)
			n, nok := atoiBytes(v)
			if !nok {
				st.parseErrors.Add(1)
				g.appendReply(cs, http.StatusBadRequest,
					appendOutcome(cs.resp[:0], "", "malformed content-length"), true, false)
				return false
			}
			// RFC 9112 §6.3: differing Content-Length values leave the
			// message length undefined, the request-smuggling shape.
			if clenDigits >= 0 && (n != clen || len(v) != clenDigits) {
				st.parseErrors.Add(1)
				g.appendReply(cs, http.StatusBadRequest,
					appendOutcome(cs.resp[:0], "", "conflicting content-length"), true, false)
				return false
			}
			clen, clenDigits = n, len(v)
		} else if v, ok := headerValue(h, "connection"); ok {
			if asciiEqualFold(trimSpaces(v), "close") {
				connClose = true
			}
		} else if _, ok := headerValue(h, "transfer-encoding"); ok {
			g.appendReply(cs, http.StatusNotImplemented,
				appendOutcome(cs.resp[:0], "", "chunked bodies not supported on admission paths"), true, false)
			return false
		} else if _, ok := headerValue(h, "expect"); ok {
			g.appendReply(cs, http.StatusExpectationFailed,
				appendOutcome(cs.resp[:0], "", "expectations not supported on admission paths"), true, false)
			return false
		}
	}
	if clen > g.maxBody {
		st.parseErrors.Add(1)
		g.appendReply(cs, http.StatusRequestEntityTooLarge,
			appendOutcome(cs.resp[:0], "", "request body too large"), true, false)
		return false
	}
	if cap(cs.body) < clen {
		cs.body = make([]byte, clen)
	}
	body := cs.body[:clen]
	if _, err := io.ReadFull(cs.br, body); err != nil {
		return false
	}
	st.requests.Add(1)
	switch r {
	case routeOpen:
		g.fastOpen(cs, st, body, connClose)
	case routeBatch:
		g.fastBatch(cs, st, body, connClose)
	case routeClose:
		g.fastClose(cs, st, body, connClose)
	}
	st.latency.Observe(time.Duration(g.s.nowNS() - start).Seconds())
	return !connClose
}

func (g *Ingress) fastOpen(cs *connState, st *listenerStats, body []byte, connClose bool) {
	v, err := parseOpenBody(body)
	if err != nil {
		st.parseErrors.Add(1)
		cs.resp = appendOutcome(cs.resp[:0], "", err.Error())
		g.appendReply(cs, http.StatusBadRequest, cs.resp, connClose, false)
		return
	}
	info, out, oerr := g.s.OpenRetry(context.Background(), v)
	st.decisions.Add(1)
	status, retry := http.StatusOK, false
	switch {
	case oerr != nil:
		status = http.StatusBadRequest
	case out != OutcomeAccepted:
		status, retry = http.StatusServiceUnavailable, true
	}
	cs.resp = appendOpenResult(cs.resp[:0], info, out, oerr)
	g.appendReply(cs, status, cs.resp, connClose, retry)
}

func (g *Ingress) fastBatch(cs *connState, st *listenerStats, body []byte, connClose bool) {
	vids, err := parseBatchBody(body, cs.vids[:0])
	if err != nil {
		st.parseErrors.Add(1)
		cs.resp = appendOutcome(cs.resp[:0], "", err.Error())
		g.appendReply(cs, http.StatusBadRequest, cs.resp, connClose, false)
		return
	}
	cs.vids = vids
	if len(vids) > g.maxBatch {
		st.parseErrors.Add(1)
		cs.resp = appendOutcome(cs.resp[:0], "",
			fmt.Sprintf("batch of %d exceeds the %d-video cap", len(vids), g.maxBatch))
		g.appendReply(cs, http.StatusBadRequest, cs.resp, connClose, false)
		return
	}
	resp := append(cs.resp[:0], '[')
	for i, v := range vids {
		if i > 0 {
			resp = append(resp, ',')
		}
		info, out, oerr := g.s.OpenRetry(context.Background(), v)
		resp = appendOpenResult(resp, info, out, oerr)
	}
	resp = append(resp, ']')
	cs.resp = resp
	st.decisions.Add(int64(len(vids)))
	st.batches.Add(1)
	g.appendReply(cs, http.StatusOK, resp, connClose, false)
}

func (g *Ingress) fastClose(cs *connState, st *listenerStats, body []byte, connClose bool) {
	id, err := parseCloseBody(body)
	if err != nil {
		st.parseErrors.Add(1)
		cs.resp = appendOutcome(cs.resp[:0], "", err.Error())
		g.appendReply(cs, http.StatusBadRequest, cs.resp, connClose, false)
		return
	}
	if g.s.Close(id) {
		cs.resp = appendOutcome(cs.resp[:0], "closed", "")
		g.appendReply(cs, http.StatusOK, cs.resp, connClose, false)
		return
	}
	cs.resp = appendOutcome(cs.resp[:0], "", "no such session")
	g.appendReply(cs, http.StatusNotFound, cs.resp, connClose, false)
}

// appendReply appends one full HTTP/1.1 response (head + body) to the
// connection's output buffer. body may alias cs.resp; it is copied into
// cs.out after the head.
func (g *Ingress) appendReply(cs *connState, status int, body []byte, connClose, retryAfter bool) {
	out := append(cs.out, "HTTP/1.1 "...)
	out = strconv.AppendInt(out, int64(status), 10)
	out = append(out, ' ')
	out = append(out, http.StatusText(status)...)
	out = append(out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	out = append(out, '\r', '\n')
	if retryAfter {
		out = append(out, "Retry-After: 1\r\n"...)
	}
	if connClose {
		out = append(out, "Connection: close\r\n"...)
	}
	out = append(out, '\r', '\n')
	cs.out = append(out, body...)
}

// serveFallback replays a non-hot-path request into the net/http fallback
// handler: any pipelined responses flush first (ordering), the consumed
// request line is stitched back in front of the buffered reader, and the
// handler's response goes out with Connection: close.
func (g *Ingress) serveFallback(conn net.Conn, cs *connState, line []byte) {
	if len(cs.out) > 0 {
		if _, err := conn.Write(cs.out); err != nil {
			return
		}
		cs.out = cs.out[:0]
	}
	head := append([]byte(nil), line...)
	req, err := http.ReadRequest(bufio.NewReader(io.MultiReader(bytes.NewReader(head), cs.br)))
	if err != nil {
		body := appendOutcome(nil, "", "bad request")
		fmt.Fprintf(conn, "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
		return
	}
	req.RemoteAddr = conn.RemoteAddr().String()
	fw := &fallbackWriter{hdr: make(http.Header)}
	g.fallback.ServeHTTP(fw, req)
	fw.finish(conn)
}

// fallbackWriter buffers a fallback response so it can be framed with an
// explicit Content-Length (the hand-rolled client has no chunked decoder)
// and a Connection: close.
type fallbackWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *fallbackWriter) Header() http.Header { return w.hdr }

func (w *fallbackWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *fallbackWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *fallbackWriter) finish(conn net.Conn) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "HTTP/1.1 %d %s\r\n", w.status, http.StatusText(w.status))
	w.hdr.Del("Content-Length")
	w.hdr.Del("Connection")
	w.hdr.Write(&buf)
	fmt.Fprintf(&buf, "Content-Length: %d\r\nConnection: close\r\n\r\n", w.body.Len())
	if _, err := conn.Write(buf.Bytes()); err != nil {
		return
	}
	conn.Write(w.body.Bytes())
}

// --- byte-level HTTP helpers (shared with the fast client) ---

// parseRequestLine splits "METHOD SP PATH SP HTTP/1.1\r\n". Only HTTP/1.1
// parses as hot-eligible; anything else (including HTTP/1.0) goes through
// the fallback, which handles legacy semantics correctly.
func parseRequestLine(line []byte) (method, path []byte, ok bool) {
	line = trimCRLF(line)
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return nil, nil, false
	}
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return nil, nil, false
	}
	if string(rest[sp2+1:]) != "HTTP/1.1" {
		return nil, nil, false
	}
	return line[:sp1], rest[:sp2], true
}

// trimCRLF strips one trailing \r\n or \n.
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// trimSpaces strips leading/trailing spaces and tabs (OWS).
func trimSpaces(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// headerValue matches "key: value" case-insensitively on the (lowercase)
// key and returns the raw value bytes.
func headerValue(h []byte, key string) ([]byte, bool) {
	if len(h) < len(key)+1 || h[len(key)] != ':' {
		return nil, false
	}
	if !asciiEqualFold(h[:len(key)], key) {
		return nil, false
	}
	return h[len(key)+1:], true
}

// asciiEqualFold compares b to the lowercase ASCII string s ignoring case.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
