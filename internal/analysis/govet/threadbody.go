package govet

import (
	"go/ast"
	"go/token"
)

// ThreadBody rejects calls that end the calling goroutine from inside a
// simulated thread body. Kernel.Run drives every thread body as a coroutine
// on Run's own goroutine, so runtime.Goexit there — or t.Fatal, t.FailNow
// and t.Skip in a test, which call it — ends the goroutine that called Run,
// and Run never returns. The check is lexical: it covers function literals
// passed as the entry argument of CreateThread or CreateThreadOn on a
// Kernel, including closures nested in them, but not goroutines they start
// or named functions they call. It is the one analyzer that also runs over
// _test.go files, where these calls live.
var ThreadBody = &Analyzer{
	Name:  "threadbody",
	Doc:   "no runtime.Goexit (t.Fatal, t.FailNow, t.Skip) inside a simulated thread body",
	Run:   runThreadBody,
	Tests: true,
}

// goexitMethods are the testing methods that end the calling goroutine.
var goexitMethods = map[string]bool{
	"Fatal": true, "Fatalf": true, "FailNow": true,
	"Skip": true, "Skipf": true, "SkipNow": true,
}

func runThreadBody(p *Pass) error {
	seen := make(map[token.Pos]bool) // a nested thread body is visited twice
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "CreateThread" && sel.Sel.Name != "CreateThreadOn") ||
				!isKernelType(p.Info.TypeOf(sel.X)) {
				return true
			}
			if body, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				checkThreadBody(p, body, seen)
			}
			return true
		})
	}
	return nil
}

// checkThreadBody reports every goroutine-ending call in one thread body.
func checkThreadBody(p *Pass, body *ast.FuncLit, seen map[token.Pos]bool) {
	ast.Inspect(body.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // another goroutine: Goexit there ends only it
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || seen[call.Pos()] {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch path := fn.Pkg().Path(); {
		case path == "runtime" && fn.Name() == "Goexit":
			seen[call.Pos()] = true
			p.Reportf(call.Pos(), "runtime.Goexit in a thread body ends the goroutine that called Kernel.Run, which then never returns")
		case path == "testing" && goexitMethods[fn.Name()]:
			seen[call.Pos()] = true
			p.Reportf(call.Pos(), "%s in a thread body calls runtime.Goexit and Kernel.Run never returns; use Error and return", fn.Name())
		}
		return true
	})
}
