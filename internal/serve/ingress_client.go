package serve

// FastConn is the client side of the admission hot path: one persistent
// keep-alive connection speaking hand-rolled HTTP/1.1 to the body-first
// routes (/open, /open/batch, /close), with explicit queue/flush/read
// primitives so callers can pipeline many requests per round trip. It is
// deliberately not safe for concurrent use — the replay engine and the
// benchmark both run one FastConn per worker goroutine, which is the shape
// that lets the sharded ingress keep every connection on one listener.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"time"
)

// fastTimeout bounds each FastConn flush-to-response round trip.
const fastTimeout = 30 * time.Second

// FastConn pipelines admission requests over one TCP connection.
type FastConn struct {
	conn net.Conn
	br   *bufio.Reader
	host string

	out      []byte // queued request bytes
	req      []byte // request-body scratch
	scratch  []byte // response-body scratch; valid until the next read
	sawClose bool   // server announced Connection: close
}

// DialFast opens a fast admission connection to host:port.
func DialFast(hostport string) (*FastConn, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.Dial("tcp", hostport)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &FastConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
		host: hostport,
	}, nil
}

// DialFast opens a fast admission connection to the client's daemon.
func (c *Client) DialFast() (*FastConn, error) {
	u, err := url.Parse(c.Base)
	if err != nil {
		return nil, fmt.Errorf("serve: fast dial: %w", err)
	}
	if u.Scheme != "" && u.Scheme != "http" {
		return nil, fmt.Errorf("serve: fast transport speaks plain http, not %s", u.Scheme)
	}
	host := u.Host
	if host == "" {
		host = u.Path // "host:port" with no scheme parses into Path
	}
	return DialFast(host)
}

// Close tears the connection down.
func (fc *FastConn) Close() error { return fc.conn.Close() }

// appendRequest queues one POST with the given body.
func (fc *FastConn) appendRequest(path string, body []byte) {
	out := append(fc.out, "POST "...)
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: "...)
	out = append(out, fc.host...)
	out = append(out, "\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	out = append(out, "\r\n\r\n"...)
	fc.out = append(out, body...)
}

// QueueOpen queues one admission request for video v.
func (fc *FastConn) QueueOpen(v int) {
	fc.req = append(fc.req[:0], `{"video":`...)
	fc.req = strconv.AppendInt(fc.req, int64(v), 10)
	fc.req = append(fc.req, '}')
	fc.appendRequest("/open", fc.req)
}

// QueueOpenBatch queues one batch admission request.
func (fc *FastConn) QueueOpenBatch(vids []int) {
	fc.req = append(fc.req[:0], `{"videos":[`...)
	for i, v := range vids {
		if i > 0 {
			fc.req = append(fc.req, ',')
		}
		fc.req = strconv.AppendInt(fc.req, int64(v), 10)
	}
	fc.req = append(fc.req, ']', '}')
	fc.appendRequest("/open/batch", fc.req)
}

// QueueClose queues one session-close request.
func (fc *FastConn) QueueClose(id int64) {
	fc.req = append(fc.req[:0], `{"id":`...)
	fc.req = strconv.AppendInt(fc.req, id, 10)
	fc.req = append(fc.req, '}')
	fc.appendRequest("/close", fc.req)
}

// Flush writes every queued request in one syscall and arms the round-trip
// deadline. Responses must then be read in queue order.
func (fc *FastConn) Flush() error {
	if len(fc.out) == 0 {
		return nil
	}
	fc.conn.SetDeadline(time.Now().Add(fastTimeout))
	_, err := fc.conn.Write(fc.out)
	fc.out = fc.out[:0]
	return err
}

// readResponse reads one response; the body aliases the connection scratch
// buffer and is valid only until the next read.
func (fc *FastConn) readResponse() (int, []byte, error) {
	if fc.sawClose {
		return 0, nil, errors.New("serve: connection closed by server")
	}
	line, err := fc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	line = trimCRLF(line)
	sp := bytes.IndexByte(line, ' ')
	if !bytes.HasPrefix(line, []byte("HTTP/1.")) || sp < 0 || len(line) < sp+4 {
		return 0, nil, fmt.Errorf("serve: malformed status line %q", line)
	}
	status, ok := atoiBytes(line[sp+1 : sp+4])
	if !ok {
		return 0, nil, fmt.Errorf("serve: malformed status line %q", line)
	}
	clen := -1
	for {
		h, err := fc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = trimCRLF(h)
		if len(h) == 0 {
			break
		}
		if v, ok := headerValue(h, "content-length"); ok {
			n, nok := atoiBytes(trimSpaces(v))
			if !nok {
				return 0, nil, fmt.Errorf("serve: malformed Content-Length %q", v)
			}
			clen = n
		} else if v, ok := headerValue(h, "connection"); ok {
			if asciiEqualFold(trimSpaces(v), "close") {
				fc.sawClose = true
			}
		}
	}
	if clen < 0 {
		return 0, nil, errors.New("serve: response without Content-Length (fast client has no chunked decoder)")
	}
	if cap(fc.scratch) < clen {
		fc.scratch = make([]byte, clen)
	}
	body := fc.scratch[:clen]
	if _, err := io.ReadFull(fc.br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// ReadOpen reads one queued /open response.
func (fc *FastConn) ReadOpen() (SessionInfo, Outcome, error) {
	status, body, err := fc.readResponse()
	if err != nil {
		return SessionInfo{}, "", err
	}
	switch status {
	case 200:
		info, err := parseSessionInfoWire(body)
		return info, OutcomeAccepted, err
	case 503:
		out, _, err := parseOutcomeWire(body)
		if err != nil || out == "" {
			return SessionInfo{}, OutcomeRejected, nil
		}
		return SessionInfo{}, out, nil
	default:
		return SessionInfo{}, "", &statusError{"open", status, string(excerpt(body))}
	}
}

// statusError reports a request the daemon answered with a status the
// call does not expect, such as a 400 for a video outside the catalog. The
// request was answered, so the connection stays good.
type statusError struct {
	op     string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("serve: %s: status %d: %s", e.op, e.status, e.body)
}

// OpenResult is one element of a batch admission response.
type OpenResult struct {
	Info    SessionInfo
	Outcome Outcome
	Err     string // error text for refused-with-reason elements
}

// ReadOpenBatch reads one queued /open/batch response, appending one
// OpenResult per requested video (request order) to dst.
func (fc *FastConn) ReadOpenBatch(dst []OpenResult) ([]OpenResult, error) {
	status, body, err := fc.readResponse()
	if err != nil {
		return dst, err
	}
	if status != 200 {
		return dst, &statusError{"batch", status, string(excerpt(body))}
	}
	err = splitJSONArray(body, func(elem []byte) error {
		if bytes.HasPrefix(elem, []byte(`{"id":`)) {
			info, err := parseSessionInfoWire(elem)
			if err != nil {
				return err
			}
			dst = append(dst, OpenResult{Info: info, Outcome: OutcomeAccepted})
			return nil
		}
		out, msg, err := parseOutcomeWire(elem)
		if err != nil {
			return err
		}
		dst = append(dst, OpenResult{Outcome: out, Err: msg})
		return nil
	})
	return dst, err
}

// ReadClose reads one queued /close response; false means the session was
// already gone.
func (fc *FastConn) ReadClose() (bool, error) {
	status, body, err := fc.readResponse()
	if err != nil {
		return false, err
	}
	switch status {
	case 200:
		return true, nil
	case 404:
		return false, nil
	default:
		return false, &statusError{"close", status, string(excerpt(body))}
	}
}

// Open runs one admission decision synchronously.
func (fc *FastConn) Open(v int) (SessionInfo, Outcome, error) {
	fc.QueueOpen(v)
	if err := fc.Flush(); err != nil {
		return SessionInfo{}, "", err
	}
	return fc.ReadOpen()
}

// OpenBatch runs one batch admission synchronously.
func (fc *FastConn) OpenBatch(vids []int, dst []OpenResult) ([]OpenResult, error) {
	fc.QueueOpenBatch(vids)
	if err := fc.Flush(); err != nil {
		return dst, err
	}
	return fc.ReadOpenBatch(dst)
}

// CloseSession ends one session synchronously.
func (fc *FastConn) CloseSession(id int64) (bool, error) {
	fc.QueueClose(id)
	if err := fc.Flush(); err != nil {
		return false, err
	}
	return fc.ReadClose()
}

// parseSessionInfoWire decodes an accepted-session body. The canonical
// appendSessionInfo shape parses inline; anything else (a proxy re-encoding,
// a reordered hand-written body) goes through encoding/json.
func parseSessionInfoWire(b []byte) (SessionInfo, error) {
	var info SessionInfo
	i := 0
	expect := func(tok string) bool {
		if len(b)-i >= len(tok) && string(b[i:i+len(tok)]) == tok {
			i += len(tok)
			return true
		}
		return false
	}
	field := func(pre string, dst *int64) bool {
		if !expect(pre) {
			return false
		}
		v, next, ok := parseInt(b, i)
		if !ok {
			return false
		}
		*dst = v
		i = next
		return true
	}
	var video, server, source int64
	canonical := func() bool {
		if !field(`{"id":`, &info.ID) ||
			!field(`,"video":`, &video) ||
			!field(`,"server":`, &server) ||
			!field(`,"source":`, &source) ||
			!field(`,"rate_bps":`, &info.RateBps) {
			return false
		}
		if !expect(`,"redirected":`) {
			return false
		}
		switch {
		case expect("true"):
			info.Redirected = true
		case expect("false"):
		default:
			return false
		}
		if !expect(`,"expires_in_s":`) {
			return false
		}
		j := bytes.IndexByte(b[i:], '}')
		if j < 0 || i+j != len(b)-1 {
			return false
		}
		f, err := strconv.ParseFloat(string(b[i:i+j]), 64)
		if err != nil {
			return false
		}
		info.ExpiresInS = f
		return true
	}
	if canonical() {
		info.Video, info.Server, info.Source = int(video), int(server), int(source)
		return info, nil
	}
	info = SessionInfo{}
	if err := json.Unmarshal(b, &info); err != nil {
		return SessionInfo{}, fmt.Errorf("serve: decoding session: %w", err)
	}
	return info, nil
}

// parseOutcomeWire decodes a refusal/error envelope.
func parseOutcomeWire(b []byte) (Outcome, string, error) {
	switch string(b) {
	case `{"outcome":"rejected"}`:
		return OutcomeRejected, "", nil
	case `{"outcome":"draining"}`:
		return OutcomeDraining, "", nil
	}
	var e errorBody
	if err := json.Unmarshal(b, &e); err != nil {
		return "", "", fmt.Errorf("serve: decoding outcome: %w", err)
	}
	return e.Outcome, e.Error, nil
}

// splitJSONArray calls fn for each top-level element of the array b.
func splitJSONArray(b []byte, fn func([]byte) error) error {
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("serve: batch response is not an array: %s", excerpt(b))
	}
	inner := b[1 : len(b)-1]
	if len(inner) == 0 {
		return nil
	}
	depth, start := 0, 0
	inStr, esc := false, false
	for i := 0; i < len(inner); i++ {
		c := inner[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 0 {
				if err := fn(inner[start:i]); err != nil {
					return err
				}
				start = i + 1
			}
		}
	}
	return fn(inner[start:])
}

// atoiBytes parses a small non-negative decimal without allocating.
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// excerpt bounds a body for inclusion in an error message.
func excerpt(b []byte) []byte {
	if len(b) > 256 {
		return b[:256]
	}
	return b
}
