package serve

// Sharded HTTP ingress (DESIGN.md §16): N SO_REUSEPORT listeners bound to
// one address, each running its own accept loop, so inbound connections
// spread across kernel accept queues instead of funneling through one
// listener goroutine. Each connection is served by one goroutine running a
// hand-rolled HTTP/1.1 loop: pooled read/write buffers, keep-alive with
// pipelining (responses accumulate while more requests are already
// buffered, and flush before the loop would block), and the wire.go codecs
// on the /open, /open/batch, and /close hot paths — no encoding/json, no
// net/http machinery, no per-request goroutine. Each connection gets a home
// registry partition at accept, round-robin: every admission it makes
// decides and commits on the connection's own goroutine, registers in that
// home and counts on the home's telemetry row, and the connection's request
// counters fold into its listener's row before each write. Every other
// route (admin, /metrics, /fault, …), and every request line other than
// HTTP/1.1, is replayed into a net/http fallback handler and answered with
// Connection: close; such traffic is rare enough that correctness beats
// reuse there.

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
	// maxBody caps an admission request body; the ingress refuses a larger
	// declared length with 413 before reading it, and closes the connection.
	maxBody = 1 << 20
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
// requests without touching the allocator, plus the connection's home
// partition and the counts it has not yet folded into its listener's row.
type connState struct {
	br   *bufio.Reader
	out  []byte     // pending (possibly pipelined) response bytes
	body []byte     // request-body scratch
	home *partition // where this connection's sessions register
	pend connCounts // served since the last write
	replyBuf
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
	fb := cfg.Fallback
	if fb == nil {
		fb = s.Handler()
	}
	return &Ingress{
		s: s, fallback: fb,
		maxBatch: maxBatch,
		stats:    NewHTTPStats(n),
		conns:    make(map[net.Conn]struct{}),
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

// getState takes a working set for conn from the pool and gives the
// connection its home partition.
func (g *Ingress) getState(conn net.Conn) *connState {
	home := g.s.nextHome()
	if v := g.bufPool.Get(); v != nil {
		cs := v.(*connState)
		cs.br.Reset(conn)
		cs.out, cs.body, cs.resp = cs.out[:0], cs.body[:0], cs.resp[:0]
		cs.vids = cs.vids[:0]
		cs.home, cs.pend = home, connCounts{}
		return cs
	}
	return &connState{br: bufio.NewReaderSize(conn, 16<<10), home: home}
}

// serveConn is the per-connection request loop. The flush rule is the
// pipelining contract: a pending response is written out whenever no
// further request bytes are already buffered (the next read would block on
// a client that is itself waiting for us) or the pending bytes passed the
// flush threshold. The connection's counts fold into its listener's row
// before every write, so a reply the client has read is already counted.
func (g *Ingress) serveConn(li int, conn net.Conn) {
	defer g.wg.Done()
	cs := g.getState(conn)
	st := &g.stats.ls[li]
	defer func() {
		cs.pend.fold(st)
		g.bufPool.Put(cs)
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close()
	}()
	for {
		if len(cs.out) > 0 && (cs.br.Buffered() == 0 || len(cs.out) >= flushBytes) {
			cs.pend.fold(st)
			if _, err := conn.Write(cs.out); err != nil {
				return
			}
			cs.out = cs.out[:0]
		}
		if !g.serveOne(st, conn, cs) {
			if len(cs.out) > 0 {
				cs.pend.fold(st)
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
func (g *Ingress) serveOne(st *listenerStats, conn net.Conn, cs *connState) bool {
	line, err := cs.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return refuseConn(cs, nil, http.StatusRequestHeaderFieldsTooLarge, "request line too long")
		}
		return false // EOF between requests is the normal end of keep-alive
	}
	start := g.s.nowNS()
	method, path, proto, ok := parseRequestLine(line)
	if !ok {
		return refuseConn(cs, st, http.StatusBadRequest, "malformed request line")
	}
	r := routeNone
	if string(method) == "POST" && string(proto) == "HTTP/1.1" {
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
		g.serveFallback(conn, cs, st, line)
		return false
	}

	// clenDigits is the length of the first Content-Length value, -1 before
	// one is seen: with atoiBytes's plain digits, two values are the same
	// text exactly when their numbers and lengths agree.
	clen, clenDigits, hosts, connClose := 0, -1, 0, false
	for {
		h, err := cs.br.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				return refuseConn(cs, nil, http.StatusRequestHeaderFieldsTooLarge, "header too long")
			}
			return false
		}
		h = trimCRLF(h)
		if len(h) == 0 {
			break
		}
		if !validHeaderLine(h) {
			return refuseConn(cs, st, http.StatusBadRequest, "malformed header line")
		}
		if v, ok := headerValue(h, "content-length"); ok {
			v = trimSpaces(v)
			n, nok := atoiBytes(v)
			if !nok {
				return refuseConn(cs, st, http.StatusBadRequest, "malformed content-length")
			}
			// RFC 9112 §6.3: differing Content-Length values leave the
			// message length undefined, the request-smuggling shape.
			if clenDigits >= 0 && (n != clen || len(v) != clenDigits) {
				return refuseConn(cs, st, http.StatusBadRequest, "conflicting content-length")
			}
			clen, clenDigits = n, len(v)
		} else if _, ok := headerValue(h, "host"); ok {
			// RFC 9112 §3.2: a request with more than one Host is refused.
			if hosts++; hosts > 1 {
				return refuseConn(cs, st, http.StatusBadRequest, "duplicate host header")
			}
		} else if v, ok := headerValue(h, "connection"); ok {
			if asciiEqualFold(trimSpaces(v), "close") {
				connClose = true
			}
		} else if _, ok := headerValue(h, "transfer-encoding"); ok {
			return refuseConn(cs, nil, http.StatusNotImplemented, "chunked bodies not supported on admission paths")
		} else if _, ok := headerValue(h, "expect"); ok {
			return refuseConn(cs, nil, http.StatusExpectationFailed, "expectations not supported on admission paths")
		}
	}
	if clen > maxBody {
		return refuseConn(cs, st, http.StatusRequestEntityTooLarge, "request body too large")
	}
	if cap(cs.body) < clen {
		cs.body = make([]byte, clen)
	}
	body := cs.body[:clen]
	if _, err := io.ReadFull(cs.br, body); err != nil {
		return false
	}
	g.serveAdmission(cs, r, body, connClose)
	cs.pend.observe(time.Duration(g.s.nowNS() - start).Seconds())
	return !connClose
}

// serveAdmission runs one admission request through the route's shared
// answer in the connection's home, counts it on the connection and appends
// the reply to it.
func (g *Ingress) serveAdmission(cs *connState, r route, body []byte, connClose bool) {
	vd := g.s.answer(context.Background(), cs.home, r, body, g.maxBatch, &cs.replyBuf)
	cs.pend.requests++
	switch {
	case vd.decided > 0:
		cs.pend.decisions += int64(vd.decided)
	case vd.status == http.StatusBadRequest:
		cs.pend.parseErrors++
	}
	if r == routeBatch && vd.status == http.StatusOK {
		cs.pend.batches++
	}
	appendReply(cs, vd.status, cs.resp, connClose, vd.retry)
}

// verdict is how an admission request was answered: its status, whether
// the reply carries Retry-After, and how many decisions it settled. A 400
// that settled none refused the body before deciding.
type verdict struct {
	status  int
	retry   bool
	decided int
}

// replyBuf is the scratch one admission reply is built in: a connection's
// own, reused request after request, in the ingress; a fresh one per
// request in Handler().
type replyBuf struct {
	resp []byte // reply body
	vids []int  // a batch's video ids
}

// answer is the one answer of each admission route, for the ingress and
// Handler() alike: it decodes body, runs the decisions with their sessions
// registered in partition home (nil: round-robin), and leaves the reply body
// in b.resp. Batches above maxBatch are refused undecided.
func (s *Server) answer(ctx context.Context, home *partition, r route, body []byte, maxBatch int, b *replyBuf) verdict {
	b.resp = b.resp[:0]
	switch r {
	case routeOpen:
		v, err := parseOpenBody(body)
		if err != nil {
			return b.badBody(err.Error())
		}
		info, out, oerr := s.openRetry(ctx, home, v)
		b.resp = appendOpenResult(b.resp, info, out, oerr)
		vd := verdict{status: http.StatusOK, decided: 1}
		switch {
		case oerr != nil:
			vd.status = http.StatusBadRequest
		case out != OutcomeAccepted:
			vd.status, vd.retry = http.StatusServiceUnavailable, true
		}
		return vd
	case routeBatch:
		vids, err := parseBatchBody(body, b.vids[:0])
		if err != nil {
			return b.badBody(err.Error())
		}
		b.vids = vids
		if len(vids) > maxBatch {
			return b.badBody(fmt.Sprintf("batch of %d exceeds the %d-video cap", len(vids), maxBatch))
		}
		resp := append(b.resp, '[')
		for i, v := range vids {
			if i > 0 {
				resp = append(resp, ',')
			}
			info, out, oerr := s.openRetry(ctx, home, v)
			resp = appendOpenResult(resp, info, out, oerr)
		}
		b.resp = append(resp, ']')
		return verdict{status: http.StatusOK, decided: len(vids)}
	default: // routeClose
		id, err := parseCloseBody(body)
		if err != nil {
			return b.badBody(err.Error())
		}
		if !s.Close(id) {
			b.resp = appendOutcome(b.resp, "", "no such session")
			return verdict{status: http.StatusNotFound}
		}
		b.resp = appendOutcome(b.resp, "closed", "")
		return verdict{status: http.StatusOK}
	}
}

// badBody leaves msg's error envelope in b.resp: the 400 of a body refused
// before any decision.
func (b *replyBuf) badBody(msg string) verdict {
	b.resp = appendOutcome(b.resp, "", msg)
	return verdict{status: http.StatusBadRequest}
}

// refuseConn answers a request the ingress will not read further, with
// Connection: close, and returns serveOne's false. A non-nil st counts it as
// a parse error.
func refuseConn(cs *connState, st *listenerStats, status int, msg string) bool {
	if st != nil {
		st.parseErrors.Add(1)
	}
	appendReply(cs, status, appendOutcome(cs.resp[:0], "", msg), true, false)
	return false
}

// appendReply appends one full HTTP/1.1 response (head + body) to the
// connection's output buffer. body may alias cs.resp; it is copied into
// cs.out after the head.
func appendReply(cs *connState, status int, body []byte, connClose, retryAfter bool) {
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
func (g *Ingress) serveFallback(conn net.Conn, cs *connState, st *listenerStats, line []byte) {
	if len(cs.out) > 0 {
		cs.pend.fold(st)
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

// parseRequestLine splits "METHOD SP PATH SP PROTO\r\n". Only an HTTP/1.1
// line takes the admission path; any other protocol goes to the fallback,
// which keeps net/http's semantics for it (HTTP/1.0 included).
func parseRequestLine(line []byte) (method, path, proto []byte, ok bool) {
	line = trimCRLF(line)
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return nil, nil, nil, false
	}
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return nil, nil, nil, false
	}
	return line[:sp1], rest[:sp2], rest[sp2+1:], true
}

// validHeaderLine reports whether h, a header line without its line end,
// is a field net/textproto accepts: a name of token bytes (and spaces,
// which textproto tolerates before the colon), a colon, and a value of
// visible ASCII, spaces, tabs and obs-text. A line opening with whitespace,
// an obs-fold continuation that textproto joins to the line before, is
// refused.
func validHeaderLine(h []byte) bool {
	colon := bytes.IndexByte(h, ':')
	if colon <= 0 || h[0] == ' ' {
		return false
	}
	for _, c := range h[:colon] {
		if !tokenByte[c] && c != ' ' {
			return false
		}
	}
	for _, c := range h[colon+1:] {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// tokenByte marks the bytes of an RFC 9110 token.
var tokenByte = func() (t [256]bool) {
	for _, c := range "!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz" {
		t[c] = true
	}
	return t
}()

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
