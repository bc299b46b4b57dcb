package webserver

import (
	"fmt"

	"superglue/internal/binding"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// Variant selects the interface-stub configuration, matching the systems
// compared in Fig. 7.
type Variant int

// Variants.
const (
	// VariantBaseline is the plain server: same HTTP logic, no component
	// substrate at all (the Apache comparator's role).
	VariantBaseline Variant = iota + 1
	// VariantComposite runs on the component substrate with raw
	// invocations: no descriptor tracking, no recovery (the "COMPOSITE
	// base" bar).
	VariantComposite
	// VariantC3 uses the hand-written C³ stubs.
	VariantC3
	// VariantSuperGlue uses the SuperGlue runtime stubs.
	VariantSuperGlue
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantBaseline:
		return "baseline"
	case VariantComposite:
		return "composite"
	case VariantC3:
		return "composite+c3"
	case VariantSuperGlue:
		return "composite+superglue"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// kinds maps each component-substrate variant onto its binding kind.
var kinds = map[Variant]binding.Kind{
	VariantComposite: binding.Base,
	VariantC3:        binding.C3,
	VariantSuperGlue: binding.SuperGlue,
}

// services bundles one client's bound service APIs.
type services struct {
	fs    binding.FS
	lock  binding.Lock
	evt   binding.Event
	sched binding.Sched
	timer binding.Timer
}

// componentIDs records the registered server components.
type componentIDs struct {
	lock, evt, sched, timer, fs kernel.ComponentID
}

// buildSubstrate registers the five services the server uses and binds
// client APIs per the variant. (The memory manager backs the cbuf transfers
// already exercised through the filesystem path; the paper's server uses it
// the same way.)
func buildSubstrate(sys *core.System, variant Variant) (*services, *componentIDs, error) {
	kind, ok := kinds[variant]
	if !ok {
		return nil, nil, fmt.Errorf("webserver: variant %v has no component substrate", variant)
	}
	ids := &componentIDs{}
	var err error
	if ids.lock, err = lock.Register(sys); err != nil {
		return nil, nil, err
	}
	if ids.evt, err = event.Register(sys); err != nil {
		return nil, nil, err
	}
	if ids.sched, err = sched.Register(sys); err != nil {
		return nil, nil, err
	}
	if ids.timer, err = timer.Register(sys); err != nil {
		return nil, nil, err
	}
	if ids.fs, err = ramfs.Register(sys); err != nil {
		return nil, nil, err
	}
	cl, err := binding.NewClient(sys, kind, "ws-app")
	if err != nil {
		return nil, nil, err
	}
	svc := &services{}
	if svc.fs, err = cl.FS(ids.fs); err != nil {
		return nil, nil, err
	}
	if svc.lock, err = cl.Lock(ids.lock); err != nil {
		return nil, nil, err
	}
	if svc.evt, err = cl.Event(ids.evt); err != nil {
		return nil, nil, err
	}
	if svc.sched, err = cl.Sched(ids.sched); err != nil {
		return nil, nil, err
	}
	if svc.timer, err = cl.Timer(ids.timer); err != nil {
		return nil, nil, err
	}
	return svc, ids, nil
}
