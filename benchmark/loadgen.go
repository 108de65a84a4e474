package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"vodcluster/internal/workload"
)

// The load generator is a small HTTP/1.1 client that speaks only the
// daemon's wire contract — POST /open, /open/batch and /close with canonical
// JSON bodies over a keep-alive connection — and validates every reply. It
// shares no code with the daemon's own clients, so the end-to-end path
// depends on the protocol, not on them.

// conn is one keep-alive connection, used by one goroutine.
type conn struct {
	c       net.Conn
	br      *bufio.Reader
	host    string
	out     []byte // queued requests, written by flush
	servers int    // cluster size, to range-check replies
}

func dial(addr string, servers int) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; loopback round trips are still measured either way
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr, servers: servers}, nil
}

func (c *conn) close() { c.c.Close() }

func (c *conn) queue(path string, body []byte) {
	c.out = append(c.out, "POST "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.host...)
	c.out = append(c.out, "\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
}

func (c *conn) queueOpen(v int) {
	var b [32]byte
	body := append(b[:0], `{"video":`...)
	body = strconv.AppendInt(body, int64(v), 10)
	c.queue("/open", append(body, '}'))
}

func (c *conn) queueBatch(vids []int, scratch []byte) []byte {
	body := append(scratch[:0], `{"videos":[`...)
	for i, v := range vids {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(v), 10)
	}
	body = append(body, ']', '}')
	c.queue("/open/batch", body)
	return body
}

func (c *conn) queueClose(id int64) {
	var b [32]byte
	body := append(b[:0], `{"id":`...)
	body = strconv.AppendInt(body, id, 10)
	c.queue("/close", append(body, '}'))
}

// flush writes every queued request in one write.
func (c *conn) flush() error {
	_ = c.c.SetDeadline(time.Now().Add(10 * time.Second)) // a stuck daemon fails the run instead of hanging it
	_, err := c.c.Write(c.out)
	c.out = c.out[:0]
	return err
}

// readReply reads one response. The body aliases the read buffer and is
// valid until the next read.
func (c *conn) readReply() (status int, body []byte, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	clen := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		}
	}
	if clen < 0 {
		return 0, nil, errors.New("reply has no Content-Length")
	}
	if clen > c.br.Size() {
		return 0, nil, fmt.Errorf("reply body of %d bytes exceeds the read buffer", clen)
	}
	body, err = c.br.Peek(clen)
	if err != nil {
		return 0, nil, err
	}
	_, err = c.br.Discard(clen)
	return status, body, err
}

// decision is one validated admission reply.
type decision struct {
	accepted bool
	id       int64
}

var rejectedBody = []byte(`{"outcome":"rejected"}`)

// field consumes `"key":<integer>` plus the following separator from b.
func field(b []byte, key string, sep byte) (int64, []byte, bool) {
	if len(b) < len(key) || string(b[:len(key)]) != key {
		return 0, nil, false
	}
	b = b[len(key):]
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	v, err := strconv.ParseInt(string(b[:i]), 10, 64)
	if err != nil || i >= len(b) || b[i] != sep {
		return 0, nil, false
	}
	return v, b[i+1:], true
}

// parseDecision validates one admission result: the canonical session
// object for the video asked for, on a server of the cluster, or the
// canonical refusal. It returns the unconsumed rest of b.
func parseDecision(b []byte, video, servers int) (decision, []byte, error) {
	if rest, ok := bytes.CutPrefix(b, rejectedBody); ok {
		return decision{}, rest, nil
	}
	orig := b
	id, b, ok1 := field(b, `{"id":`, ',')
	v, b, ok2 := field(b, `"video":`, ',')
	srv, b, ok3 := field(b, `"server":`, ',')
	src, b, ok4 := field(b, `"source":`, ',')
	rate, b, ok5 := field(b, `"rate_bps":`, ',')
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return decision{}, nil, fmt.Errorf("malformed decision %.80q", orig)
	}
	if rest, ok := bytes.CutPrefix(b, []byte(`"redirected":false,"expires_in_s":`)); ok {
		b = rest
	} else if rest, ok := bytes.CutPrefix(b, []byte(`"redirected":true,"expires_in_s":`)); ok {
		b = rest
	} else {
		return decision{}, nil, fmt.Errorf("malformed decision %.80q", orig)
	}
	end := bytes.IndexByte(b, '}')
	if end < 0 {
		return decision{}, nil, fmt.Errorf("malformed decision %.80q", orig)
	}
	if exp, err := strconv.ParseFloat(string(b[:end]), 64); err != nil || exp <= 0 {
		return decision{}, nil, fmt.Errorf("decision expires in %q", b[:end])
	}
	if id < 0 || int(v) != video || srv < 0 || int(srv) >= servers || src < 0 || int(src) >= servers || rate <= 0 {
		return decision{}, nil, fmt.Errorf("decision %.80q does not answer a request for video %d on %d servers", orig, video, servers)
	}
	return decision{accepted: true, id: id}, b[end+1:], nil
}

// readOpen reads and validates the reply to one POST /open for video.
func (c *conn) readOpen(video int) (decision, error) {
	status, body, err := c.readReply()
	if err != nil {
		return decision{}, err
	}
	d, rest, err := parseDecision(body, video, c.servers)
	if err != nil {
		return decision{}, err
	}
	if len(rest) != 0 || d.accepted != (status == 200) || (!d.accepted && status != 503) {
		return decision{}, fmt.Errorf("status %d with body %.80q", status, body)
	}
	return d, nil
}

// readBatch reads and validates the reply to one POST /open/batch: one
// decision per video, in order.
func (c *conn) readBatch(vids []int, dst []decision) ([]decision, error) {
	status, body, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if status != 200 || len(body) < 2 || body[0] != '[' {
		return nil, fmt.Errorf("batch status %d with body %.80q", status, body)
	}
	b := body[1:]
	for i, v := range vids {
		var d decision
		if d, b, err = parseDecision(b, v, c.servers); err != nil {
			return nil, fmt.Errorf("batch element %d: %w", i, err)
		}
		dst = append(dst, d)
		want := byte(',')
		if i == len(vids)-1 {
			want = ']'
		}
		if len(b) == 0 || b[0] != want {
			return nil, fmt.Errorf("batch of %d videos answered with another length: %.80q", len(vids), body)
		}
		b = b[1:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("batch of %d videos answered with another length: %.80q", len(vids), body)
	}
	return dst, nil
}

var closedBody = []byte(`{"outcome":"closed"}`)

// readClose reads and validates the reply to one POST /close of a session
// this connection holds open.
func (c *conn) readClose() error {
	status, body, err := c.readReply()
	if err != nil {
		return err
	}
	if status != 200 || !bytes.Equal(body, closedBody) {
		return fmt.Errorf("close status %d with body %.80q", status, body)
	}
	return nil
}

// --- the open-loop schedule ---

// due is one scheduled request: when it is to be sent, from the start of the
// window, and for which video.
type due struct {
	at    time.Duration
	video int
}

// poissonSchedule generates seconds of Poisson arrivals at rate requests per
// second with Zipf(theta) videos, through the repository's own generator run
// at the compressed virtual rate, and returns it with the virtual trace the
// simulator replays for the cross-check.
func poissonSchedule(seed int64, rate, seconds, compress float64, videos int, theta float64) ([]due, *workload.Trace, error) {
	gen, err := workload.NewGenerator(workload.Poisson{Lambda: rate / compress}, videos, theta)
	if err != nil {
		return nil, nil, err
	}
	tr := gen.Generate(seconds*compress, seed)
	sched := make([]due, len(tr.Requests))
	for i, r := range tr.Requests {
		sched[i] = due{time.Duration(r.Time / compress * float64(time.Second)), r.Video}
	}
	return sched, tr, nil
}

// --- the echo floor ---

// echoServer is a TCP echo the benchmark owns: the round trip of a request's
// bytes through it is the socket and generator floor under every rtt.
type echoServer struct {
	ln   net.Listener
	done chan struct{}
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	return s, nil
}

// stop closes the listener and waits for the echo goroutine; the client
// connection must be closed first.
func (s *echoServer) stop() {
	s.ln.Close()
	<-s.done
}

// echoRTT is the median round trip in µs of one /open request's bytes to the
// echo server and back.
func echoRTT(budget time.Duration) (float64, error) {
	s, err := startEcho()
	if err != nil {
		return 0, err
	}
	c, err := dial(s.ln.Addr().String(), 0)
	if err != nil {
		s.stop()
		return 0, err
	}
	c.queueOpen(7)
	msg := append([]byte(nil), c.out...)
	c.out = c.out[:0]
	back := make([]byte, len(msg))
	us, err := medianOf(budget, 1000, func() (float64, error) {
		start := time.Now()
		if _, err := c.c.Write(msg); err != nil {
			return 0, err
		}
		_, err := io.ReadFull(c.br, back)
		return float64(time.Since(start)) / 1e3, err
	})
	c.close()
	s.stop()
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	return us, nil
}
