package fixture

import (
	"runtime"
	"testing"
)

func TestBadBodies(t *testing.T) {
	k := &Kernel{}
	k.CreateThread(nil, "fatal", 10, func(th *Thread) {
		t.Fatalf("boom") // want "Fatalf in a thread body calls runtime.Goexit"
	})
	k.CreateThreadOn(nil, "on", 10, 1, func(th *Thread) {
		defer func() {
			t.FailNow() // want "FailNow in a thread body"
		}()
		t.SkipNow() // want "SkipNow in a thread body"
	})
	var tb testing.TB = t
	k.CreateThread(nil, "tb", 10, func(th *Thread) {
		tb.Fatal("via the interface") // want "Fatal in a thread body"
		k.CreateThread(th, "nested", 10, func(*Thread) {
			runtime.Goexit() // want "runtime.Goexit in a thread body"
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
