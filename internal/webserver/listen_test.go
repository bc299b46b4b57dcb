package webserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"superglue/internal/kernel"
)

// startServe boots serve over br on a loopback listener and returns the
// address and a shutdown func that returns serve's Stats.
func startServe(t *testing.T, cfg Config, br *bridge) (string, func() (*Stats, error)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	type result struct {
		st  *Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := serve(ln, cfg, br)
		done <- result{st, err}
	}()
	shutdown := func() (*Stats, error) {
		_ = ln.Close()
		select {
		case r := <-done:
			return r.st, r.err
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("serve did not return after listener close")
		}
	}
	return ln.Addr().String(), shutdown
}

// startServer is startServe for the net/http tests: it returns the base
// URL and a shutdown func that reports serve's error only.
func startServer(t *testing.T, cfg Config) (string, func() error) {
	t.Helper()
	addr, shutdown := startServe(t, cfg, newBridge())
	return "http://" + addr, func() error {
		_, err := shutdown()
		return err
	}
}

func TestServeRealHTTP(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantSuperGlue, Files: files})
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(url + "/index.html")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d; want 200", resp.StatusCode)
	}
	if string(body) != string(files["/index.html"]) {
		t.Fatalf("body = %q; want the site file", body)
	}

	resp, err = client.Get(url + "/missing.html")
	if err != nil {
		t.Fatalf("GET missing: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d; want 404", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeKeepAliveAndConcurrency(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantC3, Files: files, Workers: 3})
	client := &http.Client{Timeout: 10 * time.Second}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := fmt.Sprintf("/f%d.html", i%8)
				resp, err := client.Get(url + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 || string(body) != string(files[path]) {
					errs <- fmt.Errorf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeAcrossInjectedFaults(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{
		Variant:    VariantSuperGlue,
		Files:      files,
		FaultEvery: 40,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 300; i++ {
		path := fmt.Sprintf("/f%d.html", i%8)
		resp, err := client.Get(url + path)
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.StatusCode != 200 || string(body) != string(files[path]) {
			t.Fatalf("request %d: status %d body %d bytes (service must survive crashes)",
				i, resp.StatusCode, len(body))
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeRejectsBaseline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	if err := Serve(ln, Config{Variant: VariantBaseline}); err == nil {
		t.Fatal("Serve accepted the baseline variant")
	}
}

// TestServeRecoversLostTrigger: evt fails in the return window of every
// trigger netif sends to a worker that is not waiting (the trigger stays
// pending in evt), so the µ-reboot that follows wipes it. On two cores the
// one worker is often away serving on the services' core when netif
// triggers it for the second of a pair of requests. The client must still
// get every answer without a later arrival to wake the worker.
func TestServeRecoversLostTrigger(t *testing.T) {
	br := newBridge()
	cfg := Config{Variant: VariantSuperGlue, Workers: 1, Cores: 2}
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	wiped := 0
	armed := make(chan struct{})
	br.onIdle = func(k *kernel.Kernel, _ bool) {
		select {
		case <-armed:
		default:
			// First park, before any arrival.
			k.SetInvokeHook(func(th *kernel.Thread, comp kernel.ComponentID, fn string, phase kernel.InvokePhase) {
				// The trigger's return value, staged in EAX, counts the
				// waiters it woke.
				if phase == kernel.PhaseExit && fn == "evt_trigger" && th.Name() == "netif" && th.Regs().Val[kernel.RegEAX] == 0 {
					wiped++
					_ = k.FailComponent(comp)
				}
			})
			close(armed)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := runMachine(cfg, br)
		done <- err
	}()
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatal("the machine never parked")
	}
	var err error
	files := DefaultFiles()
	for i := 0; i < 20; i++ {
		var replies [2]chan []byte
		for j := range replies {
			if replies[j], err = br.submit(FormatRequest(fmt.Sprintf("/f%d.html", j), true)); err != nil {
				t.Fatal(err)
			}
		}
		for j, reply := range replies {
			select {
			case resp := <-reply:
				if want := AppendResponse(nil, 200, files[fmt.Sprintf("/f%d.html", j)]); !bytes.Equal(resp, want) {
					t.Fatalf("round %d request %d: %q; want %q", i, j, resp, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d request %d unanswered: its trigger was lost and never re-sent", i, j)
			}
		}
	}
	br.stop()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if wiped == 0 {
		t.Fatal("no trigger was wiped; the test exercised nothing")
	}
}

// rawGet sends one keep-alive GET on conn and returns the response bytes
// exactly as they came off the socket.
func rawGet(conn net.Conn, r *bufio.Reader, path string) ([]byte, error) {
	if _, err := conn.Write(FormatRequest(path, true)); err != nil {
		return nil, err
	}
	var head []byte
	length := -1
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		head = append(head, line...)
		if v, ok := strings.CutPrefix(string(line), "Content-Length: "); ok {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return nil, err
			}
		}
		if string(line) == "\r\n" {
			break
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("response without Content-Length: %q", head)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return append(head, body...), nil
}

// TestServeMatchesRun: on one and two cores, with one and three storage
// replicas, and under each injector, every live response is byte for byte
// what Run's worker renders for its path, each injector fires, and two
// cores migrate.
func TestServeMatchesRun(t *testing.T) {
	files := DefaultFiles()
	site := append(paths(files), "/missing.html")
	injectors := []struct {
		name  string
		cfg   Config
		fired func(*Stats) int
	}{
		{"crasher", Config{FaultEvery: 10}, func(st *Stats) int { return st.Faults }},
		{"burster", Config{CorrelatedEvery: 10}, func(st *Stats) int { return st.CorrelatedBursts }},
		{"hangler", Config{HangEvery: 10, Watchdog: true}, func(st *Stats) int { return st.Hangs }},
	}
	const conns, perConn = 2, 40
	for _, cores := range []int{1, 2} {
		for _, replicas := range []int{1, 3} {
			for _, in := range injectors {
				cfg := in.cfg
				cfg.Variant, cfg.Files, cfg.Cores, cfg.Replicas = VariantSuperGlue, files, cores, replicas
				t.Run(fmt.Sprintf("%s/cores=%d/replicas=%d", in.name, cores, replicas), func(t *testing.T) {
					addr, shutdown := startServe(t, cfg, newBridge())
					var wg sync.WaitGroup
					errs := make(chan error, conns)
					for c := 0; c < conns; c++ {
						c := c
						wg.Add(1)
						go func() {
							defer wg.Done()
							conn, err := net.Dial("tcp", addr)
							if err != nil {
								errs <- err
								return
							}
							defer func() { _ = conn.Close() }()
							_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
							r := bufio.NewReader(conn)
							for i := 0; i < perConn; i++ {
								path := site[(c+i)%len(site)]
								got, err := rawGet(conn, r, path)
								if err != nil {
									errs <- fmt.Errorf("%s: %v", path, err)
									return
								}
								want := AppendResponse(nil, 404, notFoundBody)
								if body, ok := files[path]; ok {
									want = AppendResponse(nil, 200, body)
								}
								if !bytes.Equal(got, want) {
									errs <- fmt.Errorf("%s: got %q; want %q", path, got, want)
									return
								}
							}
						}()
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
					st, err := shutdown()
					if err != nil {
						t.Fatalf("shutdown: %v", err)
					}
					if st.Completed != conns*perConn || st.Errors != 0 {
						t.Errorf("completed %d, errors %d; want %d, 0", st.Completed, st.Errors, conns*perConn)
					}
					if n := in.fired(st); n == 0 {
						t.Errorf("the %s never fired", in.name)
					}
					if st.Cores != cores {
						t.Errorf("cores = %d; want %d", st.Cores, cores)
					}
					if cores > 1 && st.Migrations == 0 {
						t.Error("no cross-core migrations on two cores")
					}
				})
			}
		}
	}
}

// TestServeRejectsWhatRunRejects: both entry points refuse the same bad
// configurations.
func TestServeRejectsWhatRunRejects(t *testing.T) {
	bad := map[string]Config{
		"crasher without recovery":  {Variant: VariantComposite, FaultEvery: 5},
		"burster without SuperGlue": {Variant: VariantC3, CorrelatedEvery: 5},
		"hangler without watchdog":  {Variant: VariantSuperGlue, HangEvery: 5},
		"hangler without SuperGlue": {Variant: VariantC3, HangEvery: 5, Watchdog: true},
		"no variant":                {},
		"unknown variant":           {Variant: 99},
		"unknown recovery mode":     {Variant: VariantSuperGlue, Mode: 99},
	}
	for name, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		if err := Serve(ln, cfg); err == nil {
			t.Errorf("%s: Serve accepted %+v", name, cfg)
		}
		_ = ln.Close()
	}
}

// TestServeIdleParks: with no arrivals a live server parks in the bridge
// and dispatches no thread. The housekeeper's timer must not keep it
// busy: the kernel advances virtual time to a sleeper before it ever
// calls the idle handler.
func TestServeIdleParks(t *testing.T) {
	type park struct {
		parked     bool
		dispatches uint64
	}
	var (
		mu    sync.Mutex
		parks []park
	)
	br := newBridge()
	br.onIdle = func(k *kernel.Kernel, parked bool) {
		var n uint64
		for _, cs := range k.CoreStats() {
			n += cs.Dispatches
		}
		mu.Lock()
		parks = append(parks, park{parked, n})
		mu.Unlock()
	}
	snapshot := func() []park {
		mu.Lock()
		defer mu.Unlock()
		return append([]park(nil), parks...)
	}
	addr, shutdown := startServe(t, Config{Variant: VariantSuperGlue, Cores: 2}, br)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := rawGet(conn, bufio.NewReader(conn), "/index.html"); err != nil {
		t.Fatalf("GET: %v", err)
	}
	_ = conn.Close()
	// Wait for the machine to park after the answer, and to stay parked.
	deadline := time.Now().Add(5 * time.Second)
	var before []park
	for {
		time.Sleep(20 * time.Millisecond)
		before = snapshot()
		if n := len(before); n > 0 && before[n-1].parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle server never parked")
		}
	}
	time.Sleep(200 * time.Millisecond)
	if after := snapshot(); len(after) != len(before) {
		t.Fatalf("the idle machine resumed without an arrival: %+v", after[len(before)-1:])
	}
	if _, err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The stop resumes the parked machine: no thread ran in between.
	after := snapshot()
	if resumed := after[len(before)]; resumed.parked || resumed.dispatches != before[len(before)-1].dispatches {
		t.Fatalf("parked at %d dispatches, resumed at %+v", before[len(before)-1].dispatches, resumed)
	}
}

// TestServeReturnsWhenMachineHalts: a machine that halts mid-request (a
// panic in a simulated thread) leaves the request unanswered; the client
// sees its connection dropped and Serve returns the run error instead of
// waiting for the answer forever.
func TestServeReturnsWhenMachineHalts(t *testing.T) {
	br := newBridge()
	armed := make(chan struct{})
	br.onIdle = func(k *kernel.Kernel, _ bool) {
		select {
		case <-armed:
		default:
			// First park, before any arrival: every invocation from now on
			// panics.
			k.SetInvokeHook(func(*kernel.Thread, kernel.ComponentID, string, kernel.InvokePhase) {
				panic("injected")
			})
			close(armed)
		}
	}
	addr, shutdown := startServe(t, Config{Variant: VariantSuperGlue}, br)
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never parked")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if got, err := rawGet(conn, bufio.NewReader(conn), "/index.html"); err == nil {
		t.Fatalf("a halted machine answered %q", got)
	}
	_ = conn.Close()
	if _, err := shutdown(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("shutdown: %v; want the halting panic", err)
	}
}

// TestServeAnswersParseErrors400: a request head the parser rejects is
// answered 400 with the parse error, counted in Errors, and is not a run
// error; the connection keeps serving.
func TestServeAnswersParseErrors400(t *testing.T) {
	addr, shutdown := startServe(t, Config{Variant: VariantC3}, newBridge())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	const bad = "POST /index.html HTTP/1.1\r\nHost: x\r\n\r\n"
	_, perr := ParseRequest([]byte(bad))
	if _, err := conn.Write([]byte(bad)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	want := AppendResponse(nil, 400, []byte(perr.Error()))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("got %q, %v; want %q", got, err, want)
	}
	if _, err := rawGet(conn, r, "/index.html"); err != nil {
		t.Fatalf("GET after the 400: %v", err)
	}
	_ = conn.Close()
	st, err := shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st.Errors != 1 || st.Completed != 1 {
		t.Fatalf("errors %d, completed %d; want 1, 1", st.Errors, st.Completed)
	}
}
