//go:build go1.23

package kernel

import (
	"iter"
	"runtime"
	"sync"
)

// host is a coroutine that runs simulated thread bodies, one at a time. The
// Run driver resumes it to run its thread until the thread parks (the
// thread yields back from park) or finishes (the host clears t and
// yields from loop). A finished host goes back to a process-wide free list,
// so the next thread to start, in this kernel or any other, reuses a
// coroutine whose stack has already grown.
type host struct {
	t     *Thread // the hosted thread; nil once it finished (and while pooled)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// loop is the coroutine body: run the assigned thread, report completion
// by yielding with t cleared, and wait to be assigned the next one. stop
// (free list full) makes the final yield return false and ends the
// coroutine.
func (h *host) loop(yield func(struct{}) bool) {
	h.yield = yield
	for {
		t := h.t
		t.k.runThread(t)
		h.t = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// maxIdleHosts caps the free list. Hosts beyond it are stopped, so idle
// coroutines, each a parked goroutine with its grown stack, stay bounded
// however many machines a process runs.
const maxIdleHosts = 64

var hostPool struct {
	mu   sync.Mutex
	idle []*host
}

// getHost takes an idle host from the free list or starts a new one.
func getHost() *host {
	hostPool.mu.Lock()
	if n := len(hostPool.idle); n > 0 {
		h := hostPool.idle[n-1]
		hostPool.idle[n-1] = nil
		hostPool.idle = hostPool.idle[:n-1]
		hostPool.mu.Unlock()
		return h
	}
	hostPool.mu.Unlock()
	h := &host{}
	h.next, h.stop = iter.Pull(h.loop)
	return h
}

// putHost returns a finished host to the free list, or stops it when the
// list is full.
func putHost(h *host) {
	hostPool.mu.Lock()
	if len(hostPool.idle) < maxIdleHosts {
		hostPool.idle = append(hostPool.idle, h)
		hostPool.mu.Unlock()
		return
	}
	hostPool.mu.Unlock()
	h.stop()
}

// gcYieldEvery is how many dispatches the driver makes between calls to
// runtime.Gosched. A coroutine switch never enters the Go scheduler, so at
// GOMAXPROCS 1 a long-running machine would otherwise keep the GC's
// background mark worker off the CPU: mark phases stretch and the heap
// grows while they last.
const gcYieldEvery = 64

// drive is the machine's scheduler loop. Every simulated thread switch
// comes back here: the parking thread records its successor with
// dispatch and yields, and the driver resumes the successor's host.
// When no successor is recorded the machine has halted; the driver then
// resumes every parked thread once more, and each, finding the machine
// halted, unwinds through threadKilled (running its deferred calls)
// before Run returns.
func (k *Kernel) drive() {
	for n := 1; ; n++ {
		t := k.next
		if t == nil {
			break
		}
		k.next = nil
		k.resumeThread(t)
		if n%gcYieldEvery == 0 {
			runtime.Gosched()
		}
	}
	for _, t := range k.threads {
		if t.host != nil {
			k.resumeThread(t)
		}
	}
}

// resumeThread runs t on its host, giving it one when it first runs,
// until t parks or finishes; a finished thread's host is recycled.
func (k *Kernel) resumeThread(t *Thread) {
	h := t.host
	if h == nil {
		h = getHost()
		h.t = t
		t.host = h
	}
	h.next()
	if h.t == nil {
		t.host = nil
		putHost(h)
	}
}

// park suspends the running thread cur until the driver resumes it. If the
// machine halted while cur was parked, cur unwinds via threadKilled: after a
// halt the driver resumes parked threads only to unwind them.
func (k *Kernel) park(cur *Thread) {
	cur.host.yield(struct{}{})
	if k.Halted() {
		panic(threadKilled{})
	}
}
