package fixture

// fastPath is what stubs do: invoke, holding no lock.
func fastPath(k *Kernel) {
	k.Invoke("f")     // ok: data-plane invocation
	k.WatchdogStats() // ok: read-only, not a mutator
}

func badStub(k *Kernel) {
	k.Register()     // want "stub code must not call kernel mutator Register"
	k.CreateThread() // want "stub code must not call kernel mutator CreateThread"
}
