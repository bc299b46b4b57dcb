package webserver

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// The reference HTTP parsers: the Split-based request parser with its
// eager header map, and the SplitN+Atoi status parser, kept verbatim (bar
// their names) from before the allocation-free rewrite. The differential
// fuzzers hold ParseRequest, Request.Header and ParseResponseStatus to
// exactly their verdicts, values and error texts.

// refRequest is the reference parser's request.
type refRequest struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
}

// refParseRequest is the reference ParseRequest.
func refParseRequest(raw []byte) (*refRequest, error) {
	head := raw
	if idx := bytes.Index(raw, []byte("\r\n\r\n")); idx >= 0 {
		head = raw[:idx]
	}
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("%w: empty request", ErrMalformedRequest)
	}
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, lines[0])
	}
	req := &refRequest{Method: parts[0], Path: parts[1], Proto: parts[2], Headers: make(map[string]string)}
	if req.Method != "GET" && req.Method != "HEAD" {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedMethod, req.Method)
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformedRequest, req.Proto)
	}
	if !strings.HasPrefix(req.Path, "/") {
		return nil, fmt.Errorf("%w: path %q", ErrMalformedRequest, req.Path)
	}
	for _, line := range lines[1:] {
		if line == "" {
			break
		}
		ci := strings.Index(line, ":")
		if ci <= 0 {
			return nil, fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:ci]))
		req.Headers[key] = strings.TrimSpace(line[ci+1:])
	}
	return req, nil
}

// refParseResponseStatus is the reference ParseResponseStatus.
func refParseResponseStatus(raw []byte) (int, error) {
	line := raw
	if idx := bytes.IndexByte(raw, '\r'); idx >= 0 {
		line = raw[:idx]
	}
	parts := strings.SplitN(string(line), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return 0, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, fmt.Errorf("%w: status %q", ErrMalformedRequest, parts[1])
	}
	return code, nil
}
