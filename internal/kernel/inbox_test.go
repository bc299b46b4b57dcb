package kernel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInboxAgainstRunningMachine drives a running multi-thread machine from
// outside goroutines, each through the inbox: a waker delivers the
// ExternalWakeups a blocked server thread waits for, an injector fails the
// echo component the workers invoke (they recover with EnsureRebooted), and
// monitors read the invocation count, the component's epoch and the
// reflected threads. The machine must run to completion, and what each
// monitor reads must never go backwards. Run under -race, the interleavings
// are the other assertion.
func TestInboxAgainstRunningMachine(t *testing.T) {
	const (
		wakes   = 200
		workers = 3
		iters   = 2000
	)
	k := New()
	comp := k.MustRegister(newEchoFactory(nil))
	var serverDone atomic.Bool
	served := 0
	server, err := k.CreateThread(nil, "server", 5, func(th *Thread) {
		defer serverDone.Store(true)
		for served < wakes {
			if err := k.Block(th); err != nil {
				t.Errorf("server Block: %v", err)
				return
			}
			served++
		}
	})
	if err != nil {
		t.Fatalf("CreateThread server: %v", err)
	}
	for w := 0; w < workers; w++ {
		if _, err := k.CreateThread(nil, "worker", 10, func(th *Thread) {
			for i := 0; i < iters; i++ {
				if i%4 == 0 {
					if err := k.Yield(th); err != nil {
						t.Errorf("worker Yield: %v", err)
						return
					}
				}
				_, err := k.Invoke(th, comp, "echo", Word(i))
				if err == nil {
					continue
				}
				f, ok := AsFault(err)
				if !ok {
					t.Errorf("worker iter %d: non-fault error %v", i, err)
					return
				}
				if _, err := k.EnsureRebooted(th, comp, f.Epoch); err != nil {
					t.Errorf("worker iter %d: EnsureRebooted: %v", i, err)
					return
				}
			}
		}); err != nil {
			t.Fatalf("CreateThread worker: %v", err)
		}
	}
	// The server blocks with nothing else runnable once the workers are
	// done: the idle handler waits for the waker's next kick.
	kick := make(chan struct{}, 1)
	k.SetIdleHandler(func() bool {
		select {
		case <-kick:
			return true
		case <-time.After(10 * time.Second):
			t.Error("idle handler: no kick in 10s")
			return false
		}
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // waker
		defer wg.Done()
		for !serverDone.Load() {
			select {
			case kick <- struct{}{}:
			default:
			}
			if err := k.ExternalWakeup(server); err != nil && !errors.Is(err, ErrHalted) {
				t.Errorf("ExternalWakeup: %v", err)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() { // injector
		defer wg.Done()
		for !stop.Load() {
			var err error
			k.Do(func() { err = k.FailComponent(comp) })
			if err != nil {
				t.Errorf("FailComponent: %v", err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func() { // monitor
			defer wg.Done()
			lastInv, lastEpoch, lastLive := uint64(0), uint64(0), workers+1
			for !stop.Load() {
				var inv, epoch uint64
				var live int
				k.Do(func() {
					inv = k.InvocationCount()
					epoch, _ = k.Epoch(comp)
					live = len(k.ReflectThreads())
				})
				if inv < lastInv || epoch < lastEpoch || live > lastLive {
					t.Errorf("monitor went backwards: invocations %d→%d, epoch %d→%d, live threads %d→%d",
						lastInv, inv, lastEpoch, epoch, lastLive, live)
					return
				}
				lastInv, lastEpoch, lastLive = inv, epoch, live
			}
		}()
	}

	err = k.Run()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if served != wakes {
		t.Errorf("server served %d wakeups; want %d", served, wakes)
	}
	if k.InvocationCount() == 0 {
		t.Error("InvocationCount = 0 after the workers' invocations")
	}
}

// TestInboxLifeCycle pins when inbox calls run: at once before Run and after
// it returns, and at the next scheduling decision while it runs — including
// a Post made from inside the machine.
func TestInboxLifeCycle(t *testing.T) {
	k := New()
	ran := false
	k.Post(func() { ran = true })
	if !ran {
		t.Fatal("Post before Run did not run at once")
	}
	var order []string
	if _, err := k.CreateThread(nil, "t", 10, func(th *Thread) {
		k.Post(func() { order = append(order, "posted") })
		order = append(order, "before-yield")
		if err := k.Yield(th); err != nil {
			t.Errorf("Yield: %v", err)
			return
		}
		order = append(order, "after-yield")
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"before-yield", "posted", "after-yield"}; len(order) != 3 ||
		order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v; want %v", order, want)
	}
	n := uint64(1 << 62)
	k.Do(func() { n = k.InvocationCount() })
	if n != 0 {
		t.Errorf("Do after Run read InvocationCount %d; want 0", n)
	}
	if err := k.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}
