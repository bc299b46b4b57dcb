package kernel

import (
	"errors"
	"fmt"
	"testing"
)

// TestAsFaultBareDoesNotAllocate: the recovery paths call AsFault on every
// failed invocation, and an invocation delivers a bare *Fault, which must
// be matched without an allocation.
func TestAsFaultBareDoesNotAllocate(t *testing.T) {
	var err error = &Fault{Comp: 3, Epoch: 7}
	var got *Fault
	allocs := testing.AllocsPerRun(1000, func() {
		got, _ = AsFault(err)
	})
	if allocs != 0 {
		t.Fatalf("AsFault(*Fault) made %.1f allocations per call; want 0", allocs)
	}
	if got != err {
		t.Fatalf("AsFault returned %v; want the fault itself", got)
	}
}

// TestAsFaultFindsWrappedFault: a fault wrapped by fmt.Errorf or joined
// with other errors is still found, and a non-fault error is not one.
func TestAsFaultFindsWrappedFault(t *testing.T) {
	f := &Fault{Comp: 2, Epoch: 1}
	for _, err := range []error{
		fmt.Errorf("redo: %w", f),
		fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", f)),
		errors.Join(ErrInvalidDescriptor, f),
	} {
		got, ok := AsFault(err)
		if !ok || got != f {
			t.Errorf("AsFault(%v) = %v, %v; want the wrapped fault", err, got, ok)
		}
	}
	for _, err := range []error{nil, ErrInvalidDescriptor, fmt.Errorf("wrap: %w", ErrHalted)} {
		if got, ok := AsFault(err); ok || got != nil {
			t.Errorf("AsFault(%v) = %v, %v; want no fault", err, got, ok)
		}
	}
}
