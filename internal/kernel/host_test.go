package kernel

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// idleHosts returns the number of hosts on the process-wide free list.
func idleHosts() int {
	hostPool.mu.Lock()
	defer hostPool.mu.Unlock()
	return len(hostPool.idle)
}

// pooled reports whether h is on the free list.
func pooled(h *host) bool {
	hostPool.mu.Lock()
	defer hostPool.mu.Unlock()
	return slices.Contains(hostPool.idle, h)
}

// runPingPong runs a machine of n threads: every thread but the last
// blocks, the last wakes them all and exits, and each woken thread exits.
func runPingPong(t *testing.T, n int) {
	t.Helper()
	k := New()
	ids := make([]ThreadID, 0, n)
	for i := 0; i < n-1; i++ {
		id, err := k.CreateThread(nil, "sleeper", 10, func(th *Thread) {
			if err := k.Block(th); err != nil {
				t.Errorf("block: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
		ids = append(ids, id)
	}
	if _, err := k.CreateThread(nil, "waker", 20, func(th *Thread) {
		for _, id := range ids {
			if err := k.Wakeup(th, id); err != nil {
				t.Errorf("wakeup: %v", err)
			}
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSequentialMachinesBoundGoroutines: simulated threads run on
// recycled hosts, not on goroutines of their own, so 1,000 machines run
// one after another leave at most the free list's cap of idle
// coroutines behind — including after a machine with more threads than
// the cap, whose surplus hosts are stopped.
func TestSequentialMachinesBoundGoroutines(t *testing.T) {
	base := runtime.NumGoroutine() - idleHosts()
	runPingPong(t, 2*maxIdleHosts)
	for i := 0; i < 1000; i++ {
		runPingPong(t, 3)
	}
	if n := idleHosts(); n > maxIdleHosts {
		t.Fatalf("%d idle hosts, cap %d", n, maxIdleHosts)
	}
	if g := runtime.NumGoroutine(); g > base+maxIdleHosts {
		t.Fatalf("%d goroutines after 1,001 machines, want at most %d (%d before + %d idle hosts)",
			g, base+maxIdleHosts, base, maxIdleHosts)
	}
}

// TestHaltUnwindsParkedThreadsBeforeRunReturns: a thread parked when the
// machine halts unwinds through its deferred calls before Run returns,
// and its host goes back to the free list.
func TestHaltUnwindsParkedThreadsBeforeRunReturns(t *testing.T) {
	k := New()
	var deferred []string
	var hosts []*host
	park := func(name string) func(*Thread) {
		return func(th *Thread) {
			hosts = append(hosts, th.host)
			defer func() { deferred = append(deferred, name) }()
			if err := k.Block(th); err != nil {
				t.Errorf("%s: block returned %v", name, err)
			}
			t.Errorf("%s: resumed after a halt", name)
		}
	}
	for _, name := range []string{"a", "b"} {
		if _, err := k.CreateThread(nil, name, 10, park(name)); err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
	}
	if err := k.Run(); !errors.Is(err, ErrHang) {
		t.Fatalf("Run = %v, want ErrHang", err)
	}
	// b's Block found nothing runnable and halted the machine, so b
	// unwound first; the driver then unwound the parked a.
	if want := []string{"b", "a"}; !slices.Equal(deferred, want) {
		t.Fatalf("deferred calls ran %v before Run returned, want %v", deferred, want)
	}
	for _, h := range hosts {
		if !pooled(h) {
			t.Fatalf("host of a halted thread was not recycled")
		}
	}
}

// TestTerminalPathsRecycleHosts: a thread that panics, crashes the
// system or hangs for good ends its machine, and its host (and that of
// every thread parked beside it) returns to the free list.
func TestTerminalPathsRecycleHosts(t *testing.T) {
	cases := []struct {
		name string
		end  func(k *Kernel, th *Thread)
		want func(err error) bool
	}{
		{"panic", func(k *Kernel, th *Thread) { panic("boom") },
			func(err error) bool { return err != nil && !errors.Is(err, ErrHang) }},
		{"crash", func(k *Kernel, th *Thread) { k.CrashSystem(th, 0, "test") },
			func(err error) bool { var c *SystemCrash; return errors.As(err, &c) }},
		{"hang", func(k *Kernel, th *Thread) { k.HangCurrent(th) },
			func(err error) bool { return errors.Is(err, ErrHang) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			var hosts []*host
			if _, err := k.CreateThread(nil, "parked", 10, func(th *Thread) {
				hosts = append(hosts, th.host)
				_ = k.Block(th)
			}); err != nil {
				t.Fatalf("CreateThread: %v", err)
			}
			if _, err := k.CreateThread(nil, tc.name, 20, func(th *Thread) {
				hosts = append(hosts, th.host)
				tc.end(k, th)
			}); err != nil {
				t.Fatalf("CreateThread: %v", err)
			}
			if err := k.Run(); !tc.want(err) {
				t.Fatalf("Run = %v", err)
			}
			if len(hosts) != 2 {
				t.Fatalf("%d threads ran, want 2", len(hosts))
			}
			for i, h := range hosts {
				if !pooled(h) {
					t.Fatalf("host of thread %d was not recycled", i+1)
				}
				if h.t != nil {
					t.Fatalf("recycled host still references thread %d", h.t.id)
				}
			}
		})
	}
}

// TestPooledHostKeepsNoReference: once a machine has run, nothing on the
// free list keeps its kernel or its threads reachable. The kernel and its
// threads reference each other, and a finalizer on a cycle may never run,
// so the probe is a pointer-free sentinel that only the thread's entry
// function reaches: it is collected once neither the thread nor the
// kernel (which lists the thread) is reachable.
func TestPooledHostKeepsNoReference(t *testing.T) {
	collected := make(chan struct{}, 1)
	var h *host
	func() {
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { collected <- struct{}{} })
		k := New()
		if _, err := k.CreateThread(nil, "t", 10, func(th *Thread) {
			h = th.host
			sentinel[0]++
		}); err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}()
	if !pooled(h) || h.t != nil {
		t.Fatalf("host not pooled clean: pooled %t, thread %v", pooled(h), h.t)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the machine's thread is still reachable after it ran; a pooled host keeps it")
		}
	}
}
