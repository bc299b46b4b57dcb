package webserver

import (
	"bytes"
	"errors"
	"testing"
)

// sameError reports whether got and want are both nil, or are the same
// parse-error kind with the same text.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	for _, kind := range []error{ErrMalformedRequest, ErrUnsupportedMethod} {
		if errors.Is(got, kind) != errors.Is(want, kind) {
			return false
		}
	}
	return got.Error() == want.Error()
}

// FuzzParseRequest drives the HTTP request parser with arbitrary bytes
// (run with `go test -fuzz=FuzzParseRequest ./internal/webserver`) and
// holds it to the reference parser: the same verdict, error kind and
// text, fields, and header values.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("HEAD /a.html HTTP/1.0\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("GET  HTTP/1.1"))
	f.Add(FormatRequest("/index.html", true))
	f.Add([]byte("GET / HTTP/1.1\r\n Connection : close \r\nCONNECTION:keep-alive\r\nX-\xffÄ: v\r\n\r\ntail: x"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n: empty name\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1 extra\r\n\r\n"))
	f.Add([]byte("\r\n\r\nGET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := ParseRequest(raw)
		ref, refErr := refParseRequest(raw)
		if !sameError(err, refErr) {
			t.Fatalf("ParseRequest(%q) error = %v; reference %v", raw, err, refErr)
		}
		if err != nil {
			return
		}
		if req.Method != ref.Method || req.Path != ref.Path || req.Proto != ref.Proto {
			t.Fatalf("ParseRequest(%q) = %q %q %q; reference %q %q %q",
				raw, req.Method, req.Path, req.Proto, ref.Method, ref.Path, ref.Proto)
		}
		for k, v := range ref.Headers {
			if got := req.Header(k); got != v {
				t.Fatalf("ParseRequest(%q).Header(%q) = %q; reference %q", raw, k, got, v)
			}
		}
		for _, k := range []string{"host", "connection", "x-absent", "Host", ""} {
			if got := req.Header(k); got != ref.Headers[k] {
				t.Fatalf("ParseRequest(%q).Header(%q) = %q; reference %q", raw, k, got, ref.Headers[k])
			}
		}
	})
}

// FuzzParseResponseStatus holds the status-line parser to the reference
// parser on arbitrary bytes: the same code, or the same error kind and text.
func FuzzParseResponseStatus(f *testing.F) {
	f.Add(FormatResponse(200, []byte("hello")))
	f.Add([]byte("HTTP/1.1 +200 OK\r\n"))
	f.Add([]byte("HTTP/1.0 -7"))
	f.Add([]byte("HTTP/1.1 99999999999999999999 Big\r\n"))
	f.Add([]byte("HTTP/1.1  200"))
	f.Add([]byte("HTTP/2 200 OK"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		code, err := ParseResponseStatus(raw)
		refCode, refErr := refParseResponseStatus(raw)
		if code != refCode || !sameError(err, refErr) {
			t.Fatalf("ParseResponseStatus(%q) = (%d, %v); reference (%d, %v)", raw, code, err, refCode, refErr)
		}
	})
}

// FuzzResponseRoundTrip checks response framing against arbitrary bodies,
// and that AppendResponse extends a non-empty buffer with exactly
// FormatResponse's bytes.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(200, []byte("hello"))
	f.Add(404, []byte{})
	f.Add(500, []byte{0, 1, 2, 255})
	f.Fuzz(func(t *testing.T, code int, body []byte) {
		prefix := "previous response\r\n"
		out := AppendResponse([]byte(prefix), code, body)
		formatted := FormatResponse(code, body)
		if string(out[:len(prefix)]) != prefix {
			t.Fatalf("AppendResponse overwrote its prefix: %q", out[:len(prefix)])
		}
		if !bytes.Equal(out[len(prefix):], formatted) {
			t.Fatalf("AppendResponse tail %q; FormatResponse %q", out[len(prefix):], formatted)
		}
		if len(formatted) != cap(formatted) {
			t.Fatalf("FormatResponse len %d, cap %d; want an exactly sized slice", len(formatted), cap(formatted))
		}
		if code < 100 || code > 599 {
			return
		}
		got, err := ParseResponseStatus(formatted)
		if err != nil || got != code {
			t.Fatalf("status round trip = (%d, %v); want %d", got, err, code)
		}
		if !bytes.Equal(ResponseBody(formatted), body) {
			t.Fatalf("body round trip mismatch")
		}
	})
}
