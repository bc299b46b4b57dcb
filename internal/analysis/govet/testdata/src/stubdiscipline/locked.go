// Package fixture exercises both stubdiscipline rules: Rule A (no
// invocation under the inbox mutex) in this file, Rule B (no kernel
// mutators from stub files) in client.go.
package fixture

import "sync"

type inbox struct{ mu sync.Mutex }

type Kernel struct{ inbox inbox }

func (k *Kernel) Invoke(fn string) {}
func (k *Kernel) Upcall(fn string) {}
func (k *Kernel) Register()        {}
func (k *Kernel) CreateThread()    {}
func (k *Kernel) WatchdogStats()   {}

func (k *Kernel) drainLocked() {
	k.Invoke("f") // want "Invoke called while the inbox mutex is held"
}

func (k *Kernel) relockLocked() {
	k.inbox.mu.Unlock()
	k.Invoke("f") // ok: released before the invocation can reach the scheduler
	k.inbox.mu.Lock()
}

func (k *Kernel) plain() {
	k.Invoke("f") // ok: no lock held
}

func (k *Kernel) underLock() {
	k.inbox.mu.Lock()
	k.Upcall("f") // want "Upcall called while the inbox mutex is held"
	k.inbox.mu.Unlock()
	k.Upcall("f") // ok: released
}

func (b *inbox) submitAtOnce(k *Kernel) {
	b.mu.Lock()
	defer b.mu.Unlock()
	k.Invoke("f") // want "Invoke called while the inbox mutex is held"
}

func (k *Kernel) controlPlane() {
	k.Register() // ok: mutators are fine outside stub files
}
