package webserver

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

func TestParseRequest(t *testing.T) {
	req, err := ParseRequest([]byte("GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if req.Method != "GET" || req.Path != "/index.html" || req.Proto != "HTTP/1.1" {
		t.Fatalf("req = %+v", req)
	}
	if req.Header("host") != "x" || req.Header("connection") != "keep-alive" {
		t.Fatalf("headers: host %q, connection %q", req.Header("host"), req.Header("connection"))
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := map[string]error{
		"":                                    ErrMalformedRequest,
		"GET /":                               ErrMalformedRequest,
		"POST / HTTP/1.1":                     ErrUnsupportedMethod,
		"GET / SPDY/1":                        ErrMalformedRequest,
		"GET noslash HTTP/1.1":                ErrMalformedRequest,
		"GET / HTTP/1.1\r\nBadHeader\r\n\r\n": ErrMalformedRequest,
	}
	for raw, want := range cases {
		if _, err := ParseRequest([]byte(raw)); !errors.Is(err, want) {
			t.Errorf("ParseRequest(%q) = %v; want %v", raw, err, want)
		}
	}
}

func TestFormatAndParseResponse(t *testing.T) {
	resp := FormatResponse(200, []byte("hello"))
	code, err := ParseResponseStatus(resp)
	if err != nil || code != 200 {
		t.Fatalf("status = (%d, %v)", code, err)
	}
	if !bytes.Equal(ResponseBody(resp), []byte("hello")) {
		t.Fatalf("body = %q", ResponseBody(resp))
	}
	if code, _ := ParseResponseStatus(FormatResponse(404, nil)); code != 404 {
		t.Fatal("404 round trip failed")
	}
	if _, err := ParseResponseStatus([]byte("garbage")); err == nil {
		t.Fatal("garbage status accepted")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	raw := FormatRequest("/a.html", true)
	req, err := ParseRequest(raw)
	if err != nil || req.Path != "/a.html" {
		t.Fatalf("round trip = (%+v, %v)", req, err)
	}
}

func TestBaselineRun(t *testing.T) {
	st, err := Run(Config{Variant: VariantBaseline, Requests: 500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 500 || st.Errors != 0 {
		t.Fatalf("stats = %+v; want 500 completed, 0 errors", st)
	}
	if st.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestComponentizedVariantsServeCorrectly(t *testing.T) {
	for _, v := range []Variant{VariantComposite, VariantC3, VariantSuperGlue} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			st, err := Run(Config{Variant: v, Requests: 300, Workers: 2})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Completed != 300 {
				t.Fatalf("completed = %d; want 300", st.Completed)
			}
			if st.Errors != 0 {
				t.Fatalf("errors = %d; want 0", st.Errors)
			}
			if len(st.Timeline) == 0 {
				t.Fatal("no timeline buckets recorded")
			}
		})
	}
}

func TestFaultInjectionRequiresRecoveryVariant(t *testing.T) {
	for _, v := range []Variant{VariantBaseline, VariantComposite} {
		if _, err := Run(Config{Variant: v, Requests: 10, FaultEvery: 5}); err == nil {
			t.Errorf("%v: fault injection accepted without recovery stubs", v)
		}
	}
}

func TestSuperGlueServesAcrossInjectedFaults(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 600, Workers: 2, FaultEvery: 100})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 600 {
		t.Fatalf("completed = %d; want 600 (service must continue across faults)", st.Completed)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d; want 0", st.Errors)
	}
	if st.Faults < 4 {
		t.Fatalf("faults = %d; want ≥ 4 (one per 100 completions)", st.Faults)
	}
}

func TestCorrelatedBurstsRequireSuperGlue(t *testing.T) {
	for _, v := range []Variant{VariantBaseline, VariantComposite, VariantC3} {
		if _, err := Run(Config{Variant: v, Requests: 10, CorrelatedEvery: 5}); err == nil {
			t.Errorf("%v: correlated bursts accepted without SuperGlue stubs", v)
		}
	}
}

// TestSuperGlueServesAcrossCorrelatedBursts: a backing service and the
// storage component crash together, and the server still answers the full
// request stream — the recovery ladder reboots the dependency first.
func TestSuperGlueServesAcrossCorrelatedBursts(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 600, Workers: 2, CorrelatedEvery: 150})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.CorrelatedBursts < 3 {
		t.Fatalf("bursts = %d; want ≥ 3 (one per 150 completions)", st.CorrelatedBursts)
	}
	if got := st.Completed + st.Errors; got != 600 {
		t.Fatalf("completed %d + errors %d; want all 600 accounted for", st.Completed, st.Errors)
	}
	if st.Completed < 540 {
		t.Fatalf("completed = %d; want ≥ 90%% of 600 despite correlated bursts", st.Completed)
	}
}

func TestHangInjectionRequiresWatchdogAndSuperGlue(t *testing.T) {
	if _, err := Run(Config{Variant: VariantSuperGlue, Requests: 10, HangEvery: 5}); err == nil {
		t.Error("hang injection accepted without the watchdog")
	}
	if _, err := Run(Config{Variant: VariantC3, Requests: 10, HangEvery: 5, Watchdog: true}); err == nil {
		t.Error("hang injection accepted for a non-SuperGlue variant")
	}
}

// TestSuperGlueServesAcrossInjectedHangs: a backing service wedges mid-run
// every 150 requests; the watchdog attributes each hang, fails the
// component, and the stubs recover mid-request — the request stream
// completes instead of the machine dying with ErrHang.
func TestSuperGlueServesAcrossInjectedHangs(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 600, Workers: 2, HangEvery: 150, Watchdog: true})
	if err != nil {
		t.Fatalf("Run: %v (a hang must not kill the machine with the watchdog on)", err)
	}
	if st.Hangs < 3 {
		t.Fatalf("hangs = %d; want ≥ 3 (one per 150 completions)", st.Hangs)
	}
	if got := st.Completed + st.Errors; got != 600 {
		t.Fatalf("completed %d + errors %d = %d; want all 600 requests accounted for", st.Completed, st.Errors, got)
	}
	if st.Completed < 540 {
		t.Fatalf("completed = %d; want ≥ 90%% of 600 served despite hangs", st.Completed)
	}
}

// TestSuperGlueServesAcrossHangsAndCrashes combines both injectors: crash
// faults and latent hangs interleaved over the same run.
func TestSuperGlueServesAcrossHangsAndCrashes(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 600, Workers: 2,
		FaultEvery: 200, HangEvery: 170, Watchdog: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Hangs < 2 || st.Faults < 2 {
		t.Fatalf("hangs = %d, faults = %d; want both injectors firing", st.Hangs, st.Faults)
	}
	if got := st.Completed + st.Errors; got != 600 {
		t.Fatalf("completed %d + errors %d; want all 600 accounted for", st.Completed, st.Errors)
	}
	if st.Completed < 540 {
		t.Fatalf("completed = %d; want ≥ 90%% of 600", st.Completed)
	}
}

func TestC3ServesAcrossInjectedFaults(t *testing.T) {
	st, err := Run(Config{Variant: VariantC3, Requests: 600, Workers: 2, FaultEvery: 100})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 600 || st.Errors != 0 {
		t.Fatalf("stats = %+v; want 600 clean completions", st)
	}
	if st.Faults < 4 {
		t.Fatalf("faults = %d; want ≥ 4", st.Faults)
	}
}

// TestSimultaneousMultiComponentFaults fails several system services at
// the same instant mid-service: recovery must cascade cleanly (a worker's
// redo can hit a second failed component while recovering from the first).
func TestSimultaneousMultiComponentFaults(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	svc, ids, err := buildSubstrate(sys, VariantSuperGlue)
	if err != nil {
		t.Fatalf("buildSubstrate: %v", err)
	}
	k := sys.Kernel()
	files := DefaultFiles()
	site := paths(files)
	served := 0
	var runErr error
	if _, err := k.CreateThread(nil, "driver", 10, func(th *kernel.Thread) {
		cacheLock, err := svc.lock.Alloc(th)
		if err != nil {
			runErr = err
			return
		}
		fdCache := make(map[string]kernel.Word)
		// Preload.
		for _, p := range site {
			fd, err := svc.fs.Open(th, p)
			if err != nil {
				runErr = err
				return
			}
			if _, err := svc.fs.Write(th, fd, files[p]); err != nil {
				runErr = err
				return
			}
			if err := svc.fs.Close(th, fd); err != nil {
				runErr = err
				return
			}
		}
		for i := 0; i < 200; i++ {
			if i%37 == 36 {
				// Fail three components at once.
				for _, c := range []kernel.ComponentID{ids.lock, ids.fs, ids.evt} {
					if err := k.FailComponent(c); err != nil {
						runErr = err
						return
					}
				}
			}
			path := site[i%len(site)]
			body, found, err := readFile(th, svc, cacheLock, fdCache, path)
			if err != nil {
				runErr = err
				return
			}
			if !found || string(body) != string(files[path]) {
				runErr = fmt.Errorf("request %d: wrong content for %s", i, path)
				return
			}
			served++
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runErr != nil {
		t.Fatalf("driver: %v", runErr)
	}
	if served != 200 {
		t.Fatalf("served = %d; want 200", served)
	}
}

func TestEagerModeServes(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 200, Workers: 2, FaultEvery: 50, Mode: core.Eager})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 200 || st.Errors != 0 {
		t.Fatalf("stats = %+v; want 200 clean completions under eager recovery", st)
	}
}

// TestMultiCoreServes runs the request stream on 2- and 4-core machines:
// backing services live on cores ≥ 1 and workers are spread over every
// core, so each request crosses cores, with migrations charged in virtual
// time.
func TestMultiCoreServes(t *testing.T) {
	for _, cores := range []int{2, 4} {
		for _, v := range []Variant{VariantComposite, VariantC3, VariantSuperGlue} {
			v := v
			cores := cores
			t.Run(fmt.Sprintf("%v/cores=%d", v, cores), func(t *testing.T) {
				st, err := Run(Config{Variant: v, Requests: 300, Workers: 2, Cores: cores})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if st.Completed != 300 || st.Errors != 0 {
					t.Fatalf("stats = %+v; want 300 clean completions", st)
				}
				if st.Cores != cores {
					t.Fatalf("cores = %d; want %d", st.Cores, cores)
				}
				if st.Migrations == 0 {
					t.Fatal("no cross-core migrations recorded; placement did not take")
				}
				if st.VirtualTicks == 0 {
					t.Fatal("virtual clock did not advance")
				}
			})
		}
	}
}

// TestMultiCoreServesAcrossFaults injects rotating component crashes into a
// 4-core run: recovery (µ-reboot + redo) must work when the rebooted
// server is homed on another core.
func TestMultiCoreServesAcrossFaults(t *testing.T) {
	st, err := Run(Config{Variant: VariantSuperGlue, Requests: 600, Workers: 4, Cores: 4, FaultEvery: 150})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 600 || st.Errors != 0 {
		t.Fatalf("stats = %+v; want 600 clean completions across faults", st)
	}
	if st.Faults < 3 {
		t.Fatalf("faults = %d; want ≥ 3", st.Faults)
	}
}

func TestDefaultFilesHaveIndex(t *testing.T) {
	files := DefaultFiles()
	if _, ok := files["/index.html"]; !ok {
		t.Fatal("missing /index.html")
	}
	if len(files) < 5 {
		t.Fatalf("only %d files; want a multi-page site", len(files))
	}
}

// TestInjectorsDoNotPoll: a fault injector costs dispatches only when it
// fires. Each single-core run with an injector must stay within the
// fault-free run's dispatch count plus a small allowance per injected
// fault; an injector that polled (one wakeup per served request) would add
// about one dispatch per request.
func TestInjectorsDoNotPoll(t *testing.T) {
	const requests = 600
	base, err := Run(Config{Variant: VariantSuperGlue, Requests: requests, Workers: 2})
	if err != nil {
		t.Fatalf("fault-free Run: %v", err)
	}
	// perFault bounds the dispatches one injection may add: the injector's
	// own wakeup plus the recovery's eager wakeups and redos.
	const perFault = 8
	cases := []struct {
		name     string
		cfg      Config
		injected func(*Stats) int
		want     int
	}{
		{"crasher", Config{FaultEvery: 100}, func(st *Stats) int { return st.Faults }, 6},
		{"burster", Config{CorrelatedEvery: 100, Replicas: 3}, func(st *Stats) int { return st.CorrelatedBursts }, 6},
		{"hangler", Config{HangEvery: 150, Watchdog: true}, func(st *Stats) int { return st.Hangs }, 4},
	}
	for _, c := range cases {
		c.cfg.Variant, c.cfg.Requests, c.cfg.Workers = VariantSuperGlue, requests, 2
		st, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		if st.Completed != requests || st.Errors != 0 {
			t.Fatalf("%s: completed %d, errors %d; want %d clean completions", c.name, st.Completed, st.Errors, requests)
		}
		n := c.injected(st)
		if n != c.want {
			t.Fatalf("%s: %d faults injected; want %d", c.name, n, c.want)
		}
		if limit := base.Dispatches + uint64(perFault*n); st.Dispatches > limit {
			t.Errorf("%s: %d dispatches (%.3f per request) for %d faults; want at most %d (fault-free %.3f per request + %d per fault)",
				c.name, st.Dispatches, float64(st.Dispatches)/requests, n, limit, float64(base.Dispatches)/requests, perFault)
		}
	}
}
