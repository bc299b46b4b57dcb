package webserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

// inflight is one externally submitted request awaiting simulated service.
type inflight struct {
	raw  []byte
	resp chan []byte
}

// bridge connects real I/O goroutines to the simulated machine: connection
// handlers enqueue requests and wake the simulated netif thread through the
// kernel's interrupt path; the idle handler parks the machine until work or
// shutdown arrives.
type bridge struct {
	mu      sync.Mutex
	queue   []*inflight
	stopped bool

	arrivals chan struct{} // signaled on enqueue and on stop
	netifTID kernel.ThreadID
	k        *kernel.Kernel
}

func newBridge(k *kernel.Kernel) *bridge {
	return &bridge{arrivals: make(chan struct{}, 1), k: k}
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
	b.mu.Unlock()
	b.kick()
	return req.resp, nil
}

// pop removes the next queued request (nil when empty), and reports whether
// the bridge has been stopped.
func (b *bridge) pop() (*inflight, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return nil, b.stopped
	}
	req := b.queue[0]
	b.queue = b.queue[1:]
	return req, b.stopped
}

// stop initiates shutdown: the netif thread drains the queue and exits.
func (b *bridge) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.kick()
}

// kick signals the idle handler and wakes the simulated netif thread.
func (b *bridge) kick() {
	select {
	case b.arrivals <- struct{}{}:
	default:
	}
	_ = b.k.ExternalWakeup(b.netifTID) // pre-halt errors are benign here
}

// idle is the kernel idle handler: park until work or shutdown.
func (b *bridge) idle() bool {
	b.mu.Lock()
	pending := len(b.queue) > 0
	stopped := b.stopped
	b.mu.Unlock()
	if pending || stopped {
		_ = b.k.ExternalWakeup(b.netifTID)
		return true
	}
	_, ok := <-b.arrivals
	if !ok {
		return false
	}
	_ = b.k.ExternalWakeup(b.netifTID)
	return true
}

// Serve accepts HTTP connections on ln and services every request through
// the componentized system (variant VariantC3 or VariantSuperGlue, or
// VariantComposite for the no-recovery substrate): the live-server mode of
// the Fig. 7 application. It returns after ln is closed and all in-flight
// connections drain. faultEvery > 0 injects one rotating component crash
// per that many completed requests, recovered in-line with service.
func Serve(ln net.Listener, cfg Config) error {
	if cfg.Variant == VariantBaseline || cfg.Variant == 0 {
		return errors.New("webserver: Serve requires a componentized variant")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Files == nil {
		cfg.Files = DefaultFiles()
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.OnDemand
	}
	if cfg.FaultEvery > 0 && cfg.Variant != VariantC3 && cfg.Variant != VariantSuperGlue {
		return errors.New("webserver: fault injection requires a recovery variant")
	}

	sys, err := core.NewSystemWithStorage(cfg.Mode, 1, cfg.Replicas)
	if err != nil {
		return err
	}
	svc, ids, err := buildSubstrate(sys, cfg.Variant)
	if err != nil {
		return err
	}
	k := sys.Kernel()
	br := newBridge(k)
	site := paths(cfg.Files)

	var (
		cacheLock  kernel.Word
		fdCache    = make(map[string]kernel.Word)
		workerEvts = make([]kernel.Word, cfg.Workers)
		completed  = 0
		runErrs    []error
	)
	fail := func(err error) { runErrs = append(runErrs, err) }

	// Loader: preload the site and create the coordination descriptors.
	if _, err := k.CreateThread(nil, "loader", 1, func(t *kernel.Thread) {
		for _, p := range site {
			fd, err := svc.fs.Open(t, p)
			if err != nil {
				fail(fmt.Errorf("loader open %s: %w", p, err))
				return
			}
			if _, err := svc.fs.Write(t, fd, cfg.Files[p]); err != nil {
				fail(fmt.Errorf("loader write %s: %w", p, err))
				return
			}
			if err := svc.fs.Close(t, fd); err != nil {
				fail(fmt.Errorf("loader close %s: %w", p, err))
				return
			}
		}
		id, err := svc.lock.Alloc(t)
		if err != nil {
			fail(fmt.Errorf("loader lock: %w", err))
			return
		}
		cacheLock = id
		for i := range workerEvts {
			evt, err := svc.evt.Split(t, 0, kernel.Word(i))
			if err != nil {
				fail(fmt.Errorf("loader evt %d: %w", i, err))
				return
			}
			workerEvts[i] = evt
		}
	}); err != nil {
		return err
	}

	// Workers: serve requests handed over per-worker inboxes.
	inboxes := make([][]*inflight, cfg.Workers)
	workersLive := cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		w := w
		if _, err := k.CreateThread(nil, fmt.Sprintf("worker%d", w), 10, func(t *kernel.Thread) {
			defer func() { workersLive-- }()
			if _, err := svc.sched.Setup(t, t.Prio()); err != nil {
				fail(fmt.Errorf("worker%d setup: %w", w, err))
				return
			}
			for {
				if _, err := svc.evt.Wait(t, workerEvts[w]); err != nil {
					fail(fmt.Errorf("worker%d wait: %w", w, err))
					return
				}
				for len(inboxes[w]) > 0 {
					req := inboxes[w][0]
					inboxes[w] = inboxes[w][1:]
					if req == nil { // poison: shutdown
						return
					}
					req.resp <- serveOne(t, svc, cacheLock, fdCache, req.raw)
					completed++
				}
			}
		}); err != nil {
			return err
		}
	}

	// Netif: drain the bridge queue into worker inboxes; exits once stopped
	// and drained, after poisoning the workers.
	crashTargets := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer, ids.sched}
	faults := 0
	nextFault := cfg.FaultEvery
	netifTID, err := k.CreateThread(nil, "netif", 11, func(t *kernel.Thread) {
		next := 0
		for {
			req, stopped := br.pop()
			if req == nil {
				if stopped {
					for w := 0; w < cfg.Workers; w++ {
						inboxes[w] = append(inboxes[w], nil)
						if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
							fail(fmt.Errorf("netif poison: %w", err))
							return
						}
					}
					// Keep nudging until every worker saw its poison.
					for workersLive > 0 {
						for w := 0; w < cfg.Workers; w++ {
							if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
								fail(fmt.Errorf("netif drain: %w", err))
								return
							}
						}
						if err := k.Yield(t); err != nil {
							return
						}
					}
					return
				}
				// Queue empty: park; the bridge wakes us on arrivals.
				if err := k.Block(t); err != nil {
					// Diverted by a reboot of a component we are not a
					// client of mid-block cannot happen (we block in home
					// context); treat any error as shutdown.
					return
				}
				continue
			}
			if cfg.FaultEvery > 0 && completed >= nextFault {
				target := crashTargets[faults%len(crashTargets)]
				if err := k.FailComponent(target); err != nil {
					fail(err)
					return
				}
				faults++
				nextFault += cfg.FaultEvery
			}
			w := next % cfg.Workers
			next++
			inboxes[w] = append(inboxes[w], req)
			if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
				fail(fmt.Errorf("netif trigger: %w", err))
				return
			}
		}
	})
	if err != nil {
		return err
	}
	br.netifTID = netifTID
	k.SetIdleHandler(br.idle)

	// Run the machine in the background.
	simDone := make(chan error, 1)
	go func() { simDone <- k.Run() }()

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
	simErr := <-simDone
	close(br.arrivals)
	if simErr != nil {
		return fmt.Errorf("webserver: simulation: %w", simErr)
	}
	if len(runErrs) > 0 {
		return errors.Join(runErrs...)
	}
	return nil
}

// serveOne services one raw request through the component path and renders
// the response.
func serveOne(t *kernel.Thread, svc *services, cacheLock kernel.Word, fdCache map[string]kernel.Word, raw []byte) []byte {
	req, err := ParseRequest(raw)
	if err != nil {
		return FormatResponse(400, []byte(err.Error()))
	}
	body, found, err := readFile(t, svc, cacheLock, fdCache, req.Path)
	if err != nil {
		return FormatResponse(500, []byte(err.Error()))
	}
	if !found {
		return FormatResponse(404, notFoundBody)
	}
	return FormatResponse(200, body)
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
		resp := <-respCh
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
