package govet

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// StubDiscipline enforces two call-graph contracts around the kernel
// boundary:
//
// Rule A — no Invoke, InvokePost, Upcall or Dispatch call while the
// inbox mutex is held. It is the machine's one lock (the kernel inbox, through which the
// outside world reaches a running machine): an invocation can park its
// thread, the scheduler then drains the inbox under that mutex, and an
// invocation made while holding it self-deadlocks. Lock state is tracked
// lexically: a function whose name ends in "Locked" starts held; a
// `.mu.Lock()` call sets held, a plain `.mu.Unlock()` statement clears it,
// and `defer ...mu.Unlock()` keeps it held to the end of the function.
//
// Rule B — stub files (the engine's cstub.go and sstub.go, and the
// generated typed clients' client.go) must not call kernel topology mutators on a Kernel receiver. Stubs are
// data-plane code replayed during recovery; mutating registration, hooks,
// budgets or fault state from a stub would desynchronize replay.
var StubDiscipline = &Analyzer{
	Name: "stubdiscipline",
	Doc:  "no invocations under the inbox mutex; no kernel mutators from stub files",
	Run:  runStubDiscipline,
}

// invokeNames are the calls that re-enter the dispatcher (Rule A).
var invokeNames = map[string]bool{"Invoke": true, "InvokePost": true, "Upcall": true, "Dispatch": true}

// kernelMutators are control-plane methods stubs must not call (Rule B).
var kernelMutators = map[string]bool{
	"Register": true, "MustRegister": true, "SetInvokeHook": true,
	"AddRebootHook": true, "SetRegProfile": true, "SetInvokeBudget": true,
	"EnableWatchdog": true, "SetIdleHandler": true, "CrashSystem": true,
	"FailComponent": true, "CreateThread": true, "AdvanceClock": true,
	// Installing or swapping the trace recorder is control-plane: stubs may
	// record through an installed tracer but must never replace it.
	"SetTracer": true,
}

// stubFiles are the file basenames Rule B applies to.
var stubFiles = map[string]bool{
	"cstub.go": true, "sstub.go": true, "client.go": true,
}

func runStubDiscipline(p *Pass) error {
	for _, f := range p.Files {
		isStub := stubFiles[filepath.Base(p.Fset.Position(f.Pos()).Filename)]
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHeldInvokes(p, fd)
			if isStub {
				checkStubMutators(p, fd)
			}
		}
	}
	return nil
}

// checkHeldInvokes applies Rule A to one function using a lexical
// (source-order) model of mutex state.
func checkHeldInvokes(p *Pass, fd *ast.FuncDecl) {
	held := strings.HasSuffix(fd.Name.Name, "Locked")
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.FuncLit:
			// Closures run at an unknown time; don't propagate the
			// lexical lock state into them.
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				if isMutexRecv(sel.X) {
					held = true
				}
			case "Unlock":
				if isMutexRecv(sel.X) && !deferred[n] {
					held = false
				}
			default:
				if held && invokeNames[sel.Sel.Name] {
					p.Reportf(n.Pos(), "%s called while the inbox mutex is held; the scheduler drains the inbox under it and deadlocks", sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// isMutexRecv matches lock calls on a mutex-named receiver: `mu`, `b.mu`,
// `k.inbox.mu`, ...
func isMutexRecv(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return strings.HasSuffix(x.Name, "mu")
	case *ast.SelectorExpr:
		return strings.HasSuffix(x.Sel.Name, "mu")
	}
	return false
}

// checkStubMutators applies Rule B to one function in a stub file.
func checkStubMutators(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !kernelMutators[sel.Sel.Name] {
			return true
		}
		if !isKernelType(p.Info.TypeOf(sel.X)) {
			return true
		}
		p.Reportf(call.Pos(), "stub code must not call kernel mutator %s; stubs are data-plane only", sel.Sel.Name)
		return true
	})
}

// isKernelType reports whether t is (a pointer to) a named type called
// Kernel. Matching by shape rather than import path keeps the analyzer
// testable against self-contained fixtures.
func isKernelType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Kernel"
}
