// Package webserver implements the evaluation's application workload
// (§V-E): a web server built from the system-level components — events for
// request notification, locks around the shared cache, the RAM filesystem
// for content, the memory manager for connection buffers, the timer for
// housekeeping, and the scheduler for worker flow control — together with
// an ab-style load generator and a plain ("Apache-like") baseline server
// that runs the same HTTP logic without the component substrate.
package webserver

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Request is one parsed HTTP request. Method, Path and Proto are substrings
// of the one copy of the request head that ParseRequest makes; header lines
// are kept unparsed and looked up on demand with Header.
type Request struct {
	Method string
	Path   string
	Proto  string
	// headers is the head after the request line: the header lines,
	// separated by CRLF, already validated by ParseRequest.
	headers string
}

// Parse errors.
var (
	// ErrMalformedRequest reports an unparseable request.
	ErrMalformedRequest = errors.New("webserver: malformed request")
	// ErrUnsupportedMethod reports a method other than GET/HEAD.
	ErrUnsupportedMethod = errors.New("webserver: unsupported method")
)

// crlf2 ends a request head.
var crlf2 = []byte("\r\n\r\n")

// ParseRequest parses an HTTP/1.x request head (through the blank line).
// It copies the head once; the returned fields share that copy.
func ParseRequest(raw []byte) (Request, error) {
	head := raw
	if idx := bytes.Index(raw, crlf2); idx >= 0 {
		head = raw[:idx]
	}
	line, rest, _ := strings.Cut(string(head), "\r\n")
	if line == "" {
		return Request{}, fmt.Errorf("%w: empty request", ErrMalformedRequest)
	}
	// Exactly two spaces: "METHOD PATH PROTO".
	method, target, ok1 := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(target, " ")
	if !ok1 || !ok2 || strings.IndexByte(proto, ' ') >= 0 {
		return Request{}, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line)
	}
	req := Request{Method: method, Path: path, Proto: proto, headers: rest}
	if req.Method != "GET" && req.Method != "HEAD" {
		return Request{}, fmt.Errorf("%w: %s", ErrUnsupportedMethod, req.Method)
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return Request{}, fmt.Errorf("%w: protocol %q", ErrMalformedRequest, req.Proto)
	}
	if !strings.HasPrefix(req.Path, "/") {
		return Request{}, fmt.Errorf("%w: path %q", ErrMalformedRequest, req.Path)
	}
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\r\n")
		if line == "" {
			break
		}
		if strings.IndexByte(line, ':') <= 0 {
			return Request{}, fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
	}
	return req, nil
}

// Header returns the value of the header whose name, trimmed and
// lower-cased, is key: the trimmed value of the last such line, or "" if
// there is none. Keys are matched as lower-case names: Header("host")
// finds "Host: x", and Header("Host") finds nothing.
func (r *Request) Header(key string) string {
	val := ""
	for rest := r.headers; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\r\n")
		if line == "" {
			break
		}
		ci := strings.IndexByte(line, ':')
		if lowerEquals(strings.TrimSpace(line[:ci]), key) {
			val = strings.TrimSpace(line[ci+1:])
		}
	}
	return val
}

// lowerEquals reports whether strings.ToLower(name) == key, without
// allocating when name is ASCII.
func lowerEquals(name, key string) bool {
	for i := 0; i < len(name); i++ {
		if name[i] >= 0x80 {
			return strings.ToLower(name) == key
		}
	}
	if len(name) != len(key) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return false
		}
	}
	return true
}

// FormatRequest renders a GET request for the load generator.
func FormatRequest(path string, keepAlive bool) []byte {
	conn := "keep-alive"
	if !keepAlive {
		conn = "close"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: " + conn + "\r\n\r\n")
}

// notFoundBody is the body of every 404 response.
var notFoundBody = []byte("not found")

// degradedBody is the body of every 503 response: a backing service
// exhausted its recovery budget.
var degradedBody = []byte("service unavailable")

// statusText maps the status codes the server emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}

// AppendResponse appends an HTTP/1.1 response to dst and returns the
// extended slice.
func AppendResponse(dst []byte, code int, body []byte) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, statusText(code)...)
	dst = append(dst, "\r\nServer: superglue-ws\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// FormatResponse renders an HTTP/1.1 response into a slice of its own,
// allocated at its exact size.
func FormatResponse(code int, body []byte) []byte {
	var digits [20]byte
	n := len("HTTP/1.1 ") + len(strconv.AppendInt(digits[:0], int64(code), 10)) +
		1 + len(statusText(code)) + len("\r\nServer: superglue-ws\r\nContent-Length: ") +
		len(strconv.AppendInt(digits[:0], int64(len(body)), 10)) + len("\r\n\r\n") + len(body)
	return AppendResponse(make([]byte, 0, n), code, body)
}

// ParseResponseStatus extracts the status code of a rendered response.
func ParseResponseStatus(raw []byte) (int, error) {
	line := raw
	if idx := bytes.IndexByte(raw, '\r'); idx >= 0 {
		line = raw[:idx]
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.HasPrefix(line[:sp], []byte("HTTP/1.")) {
		return 0, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	tok := line[sp+1:]
	if end := bytes.IndexByte(tok, ' '); end >= 0 {
		tok = tok[:end]
	}
	// Plain digits short enough not to overflow; anything else (signs,
	// overflow, empty) takes strconv.Atoi's verdict.
	if len(tok) > 0 && len(tok) <= 18 {
		code := 0
		for _, c := range tok {
			if c < '0' || c > '9' {
				code = -1
				break
			}
			code = code*10 + int(c-'0')
		}
		if code >= 0 {
			return code, nil
		}
	}
	code, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, fmt.Errorf("%w: status %q", ErrMalformedRequest, tok)
	}
	return code, nil
}

// ResponseBody extracts the body of a rendered response.
func ResponseBody(raw []byte) []byte {
	if idx := bytes.Index(raw, crlf2); idx >= 0 {
		return raw[idx+4:]
	}
	return nil
}
