package superglue

import (
	"runtime"
	"testing"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
	"superglue/internal/storage"
	"superglue/internal/webserver"
)

// The allocation budget guards: the steady-state fast paths measured by
// BenchmarkKernelInvoke and BenchmarkTrackingLock/superglue must stay at
// 0 allocs/op. A regression here silently re-introduces GC pressure on the
// invocation primitive, so it fails as a test rather than waiting for
// someone to read benchmark output.

// TestKernelInvokeZeroAllocs pins the bare invocation primitive.
func TestKernelInvokeZeroAllocs(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		// Warm the path (first call touches cold map buckets etc.).
		if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestKernelInvokeZeroAllocsTracingDisabled pins the same fast path after a
// tracer has been installed and removed again: the stub trace hooks sit
// behind a nil-check, and with the recorder detached they must cost nothing.
func TestKernelInvokeZeroAllocsTracingDisabled(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetTracer(obs.NewRecorder(obs.DefaultCapacity))
	sys.SetTracer(nil)
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("tracing-disabled kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestKernelInvokeZeroAllocsTracingEnabled pins the fast path with a live
// recorder attached: the ring buffer's steady-state Record path is
// allocation-free, so enabling tracing must not add GC pressure either.
// The ring grows on demand, so the recorder is first filled to capacity:
// the measurement then covers the full ring's overwrite path, not the
// amortized growth of a partly filled one.
func TestKernelInvokeZeroAllocsTracingEnabled(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.DefaultCapacity)
	sys.SetTracer(rec)
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		// Warm: the first traced invoke touches the recorder's cold
		// per-component aggregate slots, and filling the ring to its
		// capacity ends its on-demand growth.
		for rec.TotalEvents() < obs.DefaultCapacity {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
				return
			}
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("tracing-enabled kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLockStubZeroAllocs pins the SuperGlue stub's tracked lock
// take/release cycle (the BenchmarkTrackingLock/superglue path).
func TestLockStubZeroAllocs(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	lockComp, err := lock.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	app, err := sys.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	locks, err := lock.NewClient(app, lockComp)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := locks.Alloc(th)
		if err != nil {
			t.Error(err)
			return
		}
		// Warm: the first hold allocates the per-thread tracking entry,
		// which is reused (not deleted) from then on.
		if err := locks.Take(th, id); err != nil {
			t.Error(err)
			return
		}
		if err := locks.Release(th, id); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if err := locks.Take(th, id); err != nil {
				t.Error(err)
			}
			if err := locks.Release(th, id); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state lock take/release allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStorageQuorumWriteAllocs guards the quorum write path
// (BenchmarkStorageQuorumWrite): sealing a WAL record once per write
// into the store's reusable scratch buffer — instead of one fresh encode
// per replica per write — and a checkpoint that keeps its encoded image
// instead of a deep copy of the state maps keep a 3-replica SaveSlice to
// the extent checksum read plus the amortized per-replica extent-list
// appends and every-64-writes image encode (21 allocs/op and ~276 KB/op
// before the buffer reuse, 5 allocs/op with the per-checkpoint map clone,
// 1 now).
func TestStorageQuorumWriteAllocs(t *testing.T) {
	cm := cbuf.NewManager(0)
	s := storage.NewReplicated(cm, 3)
	s.Attach(kernel.ComponentID(42))
	data := []byte("quorum-write-payload")
	const owner = 9
	b, err := cm.Alloc(owner, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Write(b, owner, 0, data); err != nil {
		t.Fatal(err)
	}
	// Warm the rotating descriptor set (same shape as the benchmark), so
	// the measured window sees the steady state.
	i := 0
	write := func() {
		if err := s.SaveSlice(1, kernel.Word(i%64), 0, b, 0, len(data)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for n := 0; n < 256; n++ {
		write()
	}
	allocs := testing.AllocsPerRun(512, write)
	if allocs > 3 {
		t.Errorf("quorum SaveSlice allocates %.1f objects/op, want <= 3", allocs)
	}
}

// TestStorageQuorumReadAllocs guards the quorum read fast path: when the
// three replicas agree, Resolve, HasData and LookupCreator compare typed
// answers held on the stack and return replica 0's, with no key string,
// context string, count map or answer slice (each was allocated on every
// read before; the string vote now runs only on disagreement).
func TestStorageQuorumReadAllocs(t *testing.T) {
	cm := cbuf.NewManager(0)
	s := storage.NewReplicated(cm, 3)
	s.Attach(kernel.ComponentID(42))
	data := []byte("quorum-read-payload")
	const owner = 9
	b, err := cm.Alloc(owner, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Write(b, owner, 0, data); err != nil {
		t.Fatal(err)
	}
	for id := kernel.Word(1); id <= 8; id++ {
		s.RecordCreator(1, id, 7, []kernel.Word{id, id * 10})
		if err := s.SaveSlice(1, id, 0, b, 0, len(data)); err != nil {
			t.Fatal(err)
		}
	}
	// Remap chains, so Resolve follows (and has compressed) real links.
	s.Remap(1, 1, 100)
	s.Remap(1, 100, 200)
	reads := map[string]func(i int){
		"Resolve": func(i int) {
			if got := s.Resolve(1, 1); got != 200 {
				t.Fatalf("Resolve(1) = %d; want 200", got)
			}
			s.Resolve(1, kernel.Word(i%8+2))
		},
		"HasData": func(i int) {
			if !s.HasData(1, kernel.Word(i%7+2)) {
				t.Fatal("HasData = false on a saved resource")
			}
		},
		"LookupCreator": func(i int) {
			if _, ok := s.LookupCreator(1, kernel.Word(i%7+2)); !ok {
				t.Fatal("LookupCreator found nothing")
			}
		},
	}
	for name, read := range reads {
		i := 0
		read(i)
		allocs := testing.AllocsPerRun(500, func() { read(i); i++ })
		if allocs != 0 {
			t.Errorf("3-replica %s allocates %.1f objects/op on agreement, want 0", name, allocs)
		}
	}
	if n := s.QuorumRepairs(); n != 0 {
		t.Fatalf("QuorumRepairs = %d on agreeing replicas; want 0", n)
	}
}

// TestServiceSpecParsedOnce pins parse-once for the six system services:
// a second Spec() call returns the same shared spec without allocating,
// so registering a service into each trial's machine costs no IDL parse.
func TestServiceSpecParsedOnce(t *testing.T) {
	specs := map[string]func() (*core.Spec, error){
		"event": event.Spec, "lock": lock.Spec, "mm": mm.Spec,
		"ramfs": ramfs.Spec, "sched": sched.Spec, "timer": timer.Spec,
	}
	for name, spec := range specs {
		first, err := spec()
		if err != nil {
			t.Fatalf("%s: Spec: %v", name, err)
		}
		var again *core.Spec
		allocs := testing.AllocsPerRun(100, func() { again, _ = spec() })
		if again != first {
			t.Errorf("%s: Spec() returned a different spec on a later call", name)
		}
		if allocs != 0 {
			t.Errorf("%s: Spec() allocates %.1f objects/op after the first call, want 0", name, allocs)
		}
	}
}

// TestHTTPLayerAllocs pins the HTTP layer of the request path: parsing a
// request copies its head once, and rendering into a sized buffer and
// reading the status back allocate nothing (8, 3 and 2 allocs/op with the
// Split-based parser, the header map and the bytes.Buffer renderer).
func TestHTTPLayerAllocs(t *testing.T) {
	raw := webserver.FormatRequest("/index.html", true)
	body := []byte("<html><body>superglue-ws</body></html>")
	resp := make([]byte, 0, 256)
	resp = webserver.AppendResponse(resp, 200, body)
	cases := []struct {
		name string
		max  float64
		op   func()
	}{
		{"ParseRequest", 1, func() {
			if req, err := webserver.ParseRequest(raw); err != nil || req.Path != "/index.html" {
				t.Fatalf("ParseRequest = (%+v, %v)", req, err)
			}
		}},
		{"AppendResponse", 0, func() { resp = webserver.AppendResponse(resp[:0], 200, body) }},
		{"ParseResponseStatus", 0, func() {
			if code, err := webserver.ParseResponseStatus(resp); err != nil || code != 200 {
				t.Fatalf("ParseResponseStatus = (%d, %v)", code, err)
			}
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(1000, c.op); allocs > c.max {
			t.Errorf("%s allocates %.1f objects/op, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// TestServeAllocsPerRequest pins the allocations of a whole web-server run
// per completed request, pre-rendered request stream included: each worker
// renders into its own reused response buffer, so what is left is the
// request-head copy and the substrate's (ramfs's typed Read copying the
// body out of the shared cbuf). The event service's Trigger keeps its
// waiter list's backing array, which took the SuperGlue server from 4.0
// to 3.0. The SuperGlue server made 16.8 and the plain baseline 14.8
// allocations per request with the Split-based parser and a fresh
// response per request.
func TestServeAllocsPerRequest(t *testing.T) {
	cases := []struct {
		variant webserver.Variant
		max     float64
	}{
		{webserver.VariantSuperGlue, 4},
		{webserver.VariantBaseline, 3},
	}
	const requests = 20_000
	for _, c := range cases {
		cfg := webserver.Config{Variant: c.variant, Workers: 2, Requests: requests, BucketSize: 1000}
		// The first run warms every lazily built table (spec compiles,
		// the site's files); the second is measured.
		if _, err := webserver.Run(cfg); err != nil {
			t.Fatalf("%v: Run: %v", c.variant, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := webserver.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: Run: %v", c.variant, err)
		}
		if st.Completed != requests || st.Errors != 0 {
			t.Fatalf("%v: completed %d, errors %d; want %d, 0", c.variant, st.Completed, st.Errors, requests)
		}
		perReq := float64(after.Mallocs-before.Mallocs) / requests
		t.Logf("%v: %.2f allocations per request", c.variant, perReq)
		if perReq > c.max {
			t.Errorf("%v: %.2f allocations per request, want <= %.0f", c.variant, perReq, c.max)
		}
	}
}
