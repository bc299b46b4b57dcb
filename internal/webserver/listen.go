package webserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"sync"

	"superglue/internal/kernel"
)

// inflight is one externally submitted request awaiting simulated service.
type inflight struct {
	raw  []byte
	resp chan []byte
}

// bridge connects real I/O goroutines to the simulated machine: connection
// handlers enqueue requests and signal arrivals; the machine's idle handler
// parks in wait until one comes, then wakes netif, which triggers a worker
// per arrival; the workers pop the requests.
type bridge struct {
	mu      sync.Mutex
	queue   []*inflight
	arrived int // requests ever queued
	stopped bool

	arrivals chan struct{} // signaled on enqueue and on stop
	halted   chan struct{} // closed once the machine's run returned
	// onIdle, when set, is called inside the machine k as wait parks it
	// (parked true) and as it resumes (parked false).
	onIdle func(k *kernel.Kernel, parked bool)

	// The machine's side: only its threads and idle handler touch these.
	// ended is set once netif has seen the stop with the queue empty;
	// parked while netif waits for an arrival; idleKeeper is the
	// housekeeper's thread while it waits for netif to unpark.
	ended      bool
	parked     bool
	netif      kernel.ThreadID
	idleKeeper kernel.ThreadID
}

func newBridge() *bridge {
	return &bridge{arrivals: make(chan struct{}, 1), halted: make(chan struct{})}
}

// submit hands a request to the simulation and returns its response channel.
func (b *bridge) submit(raw []byte) (chan []byte, error) {
	req := &inflight{raw: raw, resp: make(chan []byte, 1)}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return nil, errors.New("webserver: shutting down")
	}
	b.queue = append(b.queue, req)
	b.arrived++
	b.mu.Unlock()
	b.kick()
	return req.resp, nil
}

// pop removes the next queued request (nil when empty).
func (b *bridge) pop() *inflight {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return nil
	}
	req := b.queue[0]
	b.queue = b.queue[1:]
	return req
}

// counts reports how many requests ever arrived, how many wait in the
// queue, and whether the bridge has been stopped.
func (b *bridge) counts() (arrived, queued int, stopped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arrived, len(b.queue), b.stopped
}

// stop initiates shutdown: netif drains the queue and exits.
func (b *bridge) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.kick()
}

// kick signals an arrival or the stop to the machine's idle loop. A signal
// sent while the machine is busy stays buffered for the next wait.
func (b *bridge) kick() {
	select {
	case b.arrivals <- struct{}{}:
	default:
	}
}

// wait is machine k's idle loop: it blocks until a request arrives or the
// bridge stops.
func (b *bridge) wait(k *kernel.Kernel) {
	if b.onIdle != nil {
		b.onIdle(k, true)
	}
	<-b.arrivals
	if b.onIdle != nil {
		b.onIdle(k, false)
	}
}

// Serve accepts HTTP connections on ln and services every request through
// the componentized server that Run drives (VariantComposite, VariantC3
// or VariantSuperGlue), taking requests from the sockets instead of a
// pre-rendered stream: the live-server mode of the Fig. 7 application. It
// honours every Config field Run does except Requests and BucketSize, and
// keeps no completion timeline. A parse error is answered 400, a request
// a backing service could not recover 503, and any other service error
// 500; the last also becomes the run error Serve returns. Serve returns
// after ln is closed and all in-flight connections drain.
func Serve(ln net.Listener, cfg Config) error {
	_, err := serve(ln, cfg, newBridge())
	return err
}

// serve is Serve over the bridge br, returning the run's Stats.
func serve(ln net.Listener, cfg Config, br *bridge) (*Stats, error) {
	if cfg.Variant == VariantBaseline {
		return nil, errors.New("webserver: Serve requires a componentized variant")
	}
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	cfg.BucketSize = math.MaxInt // a long-lived server keeps no timeline

	// Run the machine in the background.
	type result struct {
		stats *Stats
		err   error
	}
	simDone := make(chan result, 1)
	go func() {
		st, err := runMachine(cfg, br)
		close(br.halted)
		simDone <- result{st, err}
	}()

	// Accept loop: one goroutine per connection. Open connections are
	// tracked so shutdown can sever idle keep-alive sessions.
	var conns sync.WaitGroup
	var connMu sync.Mutex
	open := make(map[net.Conn]struct{})
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed: shut down
		}
		connMu.Lock()
		open[conn] = struct{}{}
		connMu.Unlock()
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer func() {
				connMu.Lock()
				delete(open, conn)
				connMu.Unlock()
				_ = conn.Close()
			}()
			handleConn(conn, br)
		}()
	}
	connMu.Lock()
	for conn := range open {
		_ = conn.Close()
	}
	connMu.Unlock()
	conns.Wait()
	br.stop()
	r := <-simDone
	return r.stats, r.err
}

// handleConn reads HTTP/1.1 requests off one connection and writes the
// simulation's responses back, honoring keep-alive.
func handleConn(conn net.Conn, br *bridge) {
	r := bufio.NewReader(conn)
	for {
		raw, err := readRequest(r)
		if err != nil {
			return // EOF or malformed framing: drop the connection
		}
		respCh, err := br.submit(raw)
		if err != nil {
			return
		}
		var resp []byte
		select {
		case resp = <-respCh:
		case <-br.halted:
			return // the machine stopped without answering
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
		if req, perr := ParseRequest(raw); perr == nil &&
			req.Header("connection") == "close" {
			return
		}
	}
}

// readRequest reads one request head (through the blank line). Bodies are
// not supported (GET/HEAD only).
func readRequest(r *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	for {
		line, err := r.ReadBytes('\n')
		buf.Write(line)
		if err != nil {
			if buf.Len() == 0 {
				return nil, io.EOF
			}
			return nil, err
		}
		if bytes.Equal(line, []byte("\r\n")) || bytes.Equal(line, []byte("\n")) {
			return buf.Bytes(), nil
		}
		if buf.Len() > 64*1024 {
			return nil, errors.New("webserver: request head too large")
		}
	}
}
