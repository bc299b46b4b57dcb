// Package fixture exercises the threadbody analyzer. This file holds the
// negative cases: thread bodies that report failure and return, and
// goroutine-ending calls outside any thread body. fixture_test.go holds the
// positive cases, in a _test.go file, where the analyzer opts in.
package fixture

import (
	"runtime"
	"testing"
)

type Thread struct{}

type Kernel struct{}

func (k *Kernel) CreateThread(creator *Thread, name string, prio int, entry func(*Thread)) {}

func (k *Kernel) CreateThreadOn(creator *Thread, name string, prio, core int, entry func(*Thread)) {}

func (k *Kernel) Run() error { return nil }

// Pool has a CreateThread too, but it is not the kernel's.
type Pool struct{}

func (p *Pool) CreateThread(entry func()) {}

func body(th *Thread) { runtime.Goexit() } // ok: a named entry is not checked lexically

func okBodies(t *testing.T, k *Kernel, p *Pool) {
	k.CreateThread(nil, "ok", 10, func(th *Thread) {
		if th == nil {
			t.Errorf("no thread") // ok: Error lets the body return
			return
		}
		go func() {
			runtime.Goexit() // ok: ends only the goroutine it runs on
		}()
	})
	k.CreateThread(nil, "named", 10, body)
	p.CreateThread(func() {
		t.FailNow() // ok: not a simulated thread body
	})
	if err := k.Run(); err != nil {
		t.Fatal(err) // ok: outside the thread body, on the test's goroutine
	}
}
