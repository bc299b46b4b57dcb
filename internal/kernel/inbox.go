package kernel

import (
	"sync"
	"sync/atomic"
)

// inbox is the outside world's one door into a running machine. Every other
// field of the Kernel is machine-owned plain memory: only code inside Run
// touches it while Run executes. A goroutine outside the machine submits a
// function instead, and the machine runs it at its next scheduling decision
// (pickReady drains the inbox first, which covers every dispatch and every
// return of the idle handler).
//
// Before Run starts and after it returns there is no driver to drain the
// inbox, so a submitted function runs at once on the caller's goroutine,
// with mu held: outside callers are serialized against each other and
// against Run's start and stop. mu is the machine's one lock; nothing that
// invokes a component may run while it is held.
type inbox struct {
	mu      sync.Mutex
	state   inboxState
	queue   []inboxCall
	pending atomic.Bool // queue is non-empty; read at every scheduling decision
}

// inboxState is where the machine is in its life cycle, as the inbox sees
// it.
type inboxState uint8

const (
	inboxIdle    inboxState = iota // Run not started: submissions run at once
	inboxRunning                   // Run executing: submissions queue
	inboxStopped                   // Run returned: submissions run at once
)

// inboxCall is one queued function; done, when non-nil, is closed once the
// function has run.
type inboxCall struct {
	fn   func()
	done chan struct{}
}

// submit runs fn inside the machine. While Run executes, fn is queued and
// submit returns false, after fn has run when wait is set; otherwise fn runs
// at once and submit returns true.
func (b *inbox) submit(fn func(), wait bool) (ranNow bool) {
	b.mu.Lock()
	if b.state != inboxRunning {
		defer b.mu.Unlock()
		fn()
		return true
	}
	var done chan struct{}
	if wait {
		done = make(chan struct{})
	}
	b.queue = append(b.queue, inboxCall{fn: fn, done: done})
	b.pending.Store(true)
	b.mu.Unlock()
	if done != nil {
		<-done
	}
	return false
}

// start moves the inbox to running; false when Run already started.
func (b *inbox) start() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != inboxIdle {
		return false
	}
	b.state = inboxRunning
	return true
}

// drain runs every queued call. It runs inside the machine, without mu, so
// a drained function may itself submit (it is queued for the next drain).
func (b *inbox) drain() {
	b.mu.Lock()
	calls := b.queue
	b.queue = nil
	b.pending.Store(false)
	b.mu.Unlock()
	runCalls(calls)
}

// stop moves the inbox to stopped once Run is done with the machine, and
// runs whatever was queued after the last drain.
func (b *inbox) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = inboxStopped
	runCalls(b.queue)
	b.queue = nil
	b.pending.Store(false)
}

// runCalls runs queued calls in submission order and releases their
// waiters.
func runCalls(calls []inboxCall) {
	for _, c := range calls {
		c.fn()
		if c.done != nil {
			close(c.done)
		}
	}
}

// Post runs fn inside the machine without waiting for it: from a goroutine
// outside a running machine, fn runs at the machine's next scheduling
// decision, on Run's goroutine, where it may use the machine's state like
// any thread body. Before Run starts and after it returns, fn runs at once.
// fn must not call Post, Do or ExternalWakeup.
func (k *Kernel) Post(fn func()) { k.inbox.submit(fn, false) }

// Do is Post that waits until fn has run: the way a goroutine outside the
// machine reads or changes its state (invocation counts, epochs, reflected
// threads, stub metrics, FailComponent). Code already inside the machine —
// thread bodies, services, hooks, the idle handler — must not call Do: it
// would wait for a drain that only it could perform.
func (k *Kernel) Do(fn func()) { k.inbox.submit(fn, true) }
