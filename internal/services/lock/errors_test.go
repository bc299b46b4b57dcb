package lock

import (
	"errors"
	"testing"

	"superglue/internal/kernel"
	"superglue/internal/workload"
)

// TestDispatchArityAndUnknowns covers the server's argument validation.
func TestDispatchArityAndUnknowns(t *testing.T) {
	sys, comp, _ := newSys(t)
	k := sys.Kernel()
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		cases := []struct {
			fn   string
			args []kernel.Word
		}{
			{FnAlloc, nil},
			{FnTake, []kernel.Word{1}},
			{FnRelease, []kernel.Word{1, 2}},
			{FnFree, nil},
		}
		for _, tc := range cases {
			if _, err := k.Invoke(th, comp, tc.fn, tc.args...); err == nil {
				t.Errorf("%s with %d args accepted", tc.fn, len(tc.args))
			}
		}
		if _, err := k.Invoke(th, comp, "lock_bogus"); !errors.Is(err, kernel.ErrNoSuchFunction) {
			t.Errorf("bogus fn err = %v", err)
		}
		// Raw operations on unknown descriptors are EINVAL.
		for _, fn := range []string{FnTake, FnRelease} {
			if _, err := k.Invoke(th, comp, fn, 1, 999, 1); !errors.Is(err, kernel.ErrInvalidDescriptor) {
				t.Errorf("%s on unknown id err = %v; want EINVAL", fn, err)
			}
		}
		if _, err := k.Invoke(th, comp, FnFree, 999); !errors.Is(err, kernel.ErrInvalidDescriptor) {
			t.Errorf("free unknown err = %v; want EINVAL", err)
		}
		// Release by a non-holder is a semantic error.
		id, err := k.Invoke(th, comp, FnAlloc, 1)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if _, err := k.Invoke(th, comp, FnRelease, 1, id, kernel.Word(th.ID())); err == nil {
			t.Error("release of unheld lock accepted")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWakeupSkipsDepartedWaiter covers waiter-list cleanup when a woken
// thread re-contends.
func TestThreeWayContention(t *testing.T) {
	sys, _, c := newSys(t)
	k := sys.Kernel()
	var id kernel.Word
	order := []kernel.ThreadID{}
	body := func(th *kernel.Thread) {
		if err := c.Take(th, id); err != nil {
			t.Errorf("take: %v", err)
			return
		}
		order = append(order, th.ID())
		if err := k.Yield(th); err != nil {
			return
		}
		if err := c.Release(th, id); err != nil {
			t.Errorf("release: %v", err)
		}
	}
	if _, err := k.CreateThread(nil, "a", 10, func(th *kernel.Thread) {
		var err error
		id, err = c.Alloc(th)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		body(th)
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	for _, name := range []string{"b", "c"} {
		if _, err := k.CreateThread(nil, name, 10, body); err != nil {
			t.Fatalf("CreateThread: %v", err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("entered CS %d times; want 3 (%v)", len(order), order)
	}
}

// TestWorkloadMetadata covers the workload's trivial accessors and its
// incomplete-run reporting.
func TestWorkloadMetadata(t *testing.T) {
	w := NewWorkload(3)
	if w.Name() != "lock" || w.Target() != "lock" {
		t.Errorf("metadata = %s/%s", w.Name(), w.Target())
	}
	// A workload that never ran reports incompleteness.
	if err := w.Check(); err == nil {
		t.Error("Check on unrun workload succeeded")
	}
	var _ workload.Workload = w
}

// TestClientStubAccessor covers the Stub escape hatch.
func TestClientStubAccessor(t *testing.T) {
	_, comp, c := newSys(t)
	if c.Stub() == nil || c.Stub().Server() != comp {
		t.Error("Stub accessor wrong")
	}
}
