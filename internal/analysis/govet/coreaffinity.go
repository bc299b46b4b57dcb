package govet

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// CoreAffinity fences the multi-core scheduler's placement control plane.
// Per-core run queues and virtual clocks are owned by internal/kernel; the
// only sanctioned ways to influence placement from outside are
// core.System.PlaceServer (component home cores) and the kernel's
// CreateThreadOn (thread home cores), both control-plane setup calls.
//
// Rule A — outside the kernel and core packages, (*Kernel).SetComponentCore
// must not be called directly: placement goes through System.PlaceServer,
// which validates the core index against the booted machine and keeps the
// placement record the campaign engine's per-core annotation reads. A raw
// SetComponentCore bypasses both.
//
// Rule B — stub files (the engine's cstub.go and sstub.go, and the
// generated typed clients' client.go) must not change placement at all
// (SetComponentCore, PlaceServer, CreateThreadOn). Stubs are data-plane code replayed during recovery; a
// replayed placement change would re-home components mid-recovery and
// desynchronize the deterministic virtual-time merge.
var CoreAffinity = &Analyzer{
	Name: "coreaffinity",
	Doc:  "core placement only via System.PlaceServer/CreateThreadOn; never from stub files",
	Run:  runCoreAffinity,
}

// placementAPIs are the core-placement calls Rule B bans from stub files.
var placementAPIs = map[string]bool{
	"SetComponentCore": true, "PlaceServer": true, "CreateThreadOn": true,
}

func runCoreAffinity(p *Pass) error {
	// The kernel owns the run queues, and core.System is the sanctioned
	// wrapper; both are exempt from Rule A (matched by package name so the
	// analyzer stays testable against self-contained fixtures).
	exempt := p.Pkg.Name() == "kernel" || p.Pkg.Name() == "core"
	for _, f := range p.Files {
		isStub := stubFiles[filepath.Base(p.Fset.Position(f.Pos()).Filename)]
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if isStub && placementAPIs[name] && isPlacementRecv(p.Info.TypeOf(sel.X)) {
				p.Reportf(call.Pos(), "stub code must not change core placement (%s); placement is control-plane setup", name)
				return true
			}
			if !exempt && name == "SetComponentCore" && isKernelType(p.Info.TypeOf(sel.X)) {
				p.Reportf(call.Pos(), "SetComponentCore called outside the kernel/core packages; place components with core.System.PlaceServer")
			}
			return true
		})
	}
	return nil
}

// isPlacementRecv reports whether t is (a pointer to) a Kernel or System —
// the two types carrying placement methods.
func isPlacementRecv(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	n := named.Obj().Name()
	return n == "Kernel" || n == "System"
}
