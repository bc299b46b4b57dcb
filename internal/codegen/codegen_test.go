package codegen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superglue/internal/idl"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// serviceIRs compiles the IR of every system service.
func serviceIRs(t *testing.T) map[string]*IR {
	t.Helper()
	out := make(map[string]*IR)
	for name, src := range map[string]string{
		"lock":  lock.IDLSource(),
		"event": event.IDLSource(),
		"sched": sched.IDLSource(),
		"timer": timer.IDLSource(),
		"mm":    mm.IDLSource(),
		"ramfs": ramfs.IDLSource(),
	} {
		spec, err := idl.Parse(name, src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		ir, err := NewIR(spec)
		if err != nil {
			t.Fatalf("NewIR(%s): %v", name, err)
		}
		out[name] = ir
	}
	return out
}

// generate returns the typed client source for one service.
func generate(t *testing.T, ir *IR) string {
	t.Helper()
	files, err := Generate(ir)
	if err != nil {
		t.Fatalf("Generate(%s): %v", ir.Spec.Service, err)
	}
	return files[ClientFile]
}

// TestRegistryHas72Pairs pins where the paper's 72 template-predicate
// pairs (§IV-B) live now that sgc emits only the typed client: the table
// in EXPERIMENTS.md maps each former pair to the client template that
// still emits it (sgc:NAME) or to the internal/core declaration that
// implements its mechanism under the same predicate (core:NAME). Every
// entry must be unique and every named site must exist.
func TestRegistryHas72Pairs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "<!-- pairs:begin -->")
	table, _, ok2 := strings.Cut(table, "<!-- pairs:end -->")
	if !ok || !ok2 {
		t.Fatal("EXPERIMENTS.md has no <!-- pairs:begin/end --> table")
	}
	templates := make(map[string]bool)
	for _, name := range Registry() {
		templates[name] = true
	}
	decls := coreDecls(t)
	seen := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) != 3 || strings.HasPrefix(strings.TrimSpace(cells[0]), "---") ||
			strings.TrimSpace(cells[0]) == "former pair" {
			continue
		}
		pair := strings.Trim(strings.TrimSpace(cells[0]), "`")
		site := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if seen[pair] {
			t.Errorf("pair %s mapped twice", pair)
		}
		seen[pair] = true
		switch kind, name, _ := strings.Cut(site, ":"); kind {
		case "sgc":
			if !templates[name] {
				t.Errorf("%s → %s: no such client template", pair, site)
			}
		case "core":
			if !decls[name] {
				t.Errorf("%s → %s: no such declaration in internal/core", pair, site)
			}
		default:
			t.Errorf("%s → %q: site must be sgc:NAME or core:NAME", pair, site)
		}
	}
	if len(seen) != 72 {
		t.Errorf("table maps %d pairs; want the paper's 72", len(seen))
	}
}

// coreDecls returns the top-level declarations of internal/core's
// non-test files: functions (F), methods ((*T).M or (T).M) and types.
func coreDecls(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					switch r := d.Recv.List[0].Type.(type) {
					case *ast.StarExpr:
						name = "(*" + r.X.(*ast.Ident).Name + ")." + name
					case *ast.Ident:
						name = "(" + r.Name + ")." + name
					}
				}
				out[name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// TestGenerateAllServicesParses generates the client for every service;
// the emitter runs go/format on the output, so success implies parseable
// code.
func TestGenerateAllServicesParses(t *testing.T) {
	for name, ir := range serviceIRs(t) {
		src := generate(t, ir)
		if !strings.Contains(src, "DO NOT EDIT") {
			t.Errorf("%s: missing generated-code marker", name)
		}
		if !strings.Contains(src, "package "+ir.Package()) {
			t.Errorf("%s: missing package clause %s", name, ir.Package())
		}
	}
}

// TestClientMethodPerFunction checks the shape of every generated client:
// exactly one method per interface function (plus Stub), each a single
// call of the BoundCall the constructor binds for that function, passing
// the thread and the IDL parameters in order.
func TestClientMethodPerFunction(t *testing.T) {
	for name, ir := range serviceIRs(t) {
		f, err := parser.ParseFile(token.NewFileSet(), ClientFile, generate(t, ir), parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// bound maps each Client field to the function the constructor
		// binds it to, from the {"fn", &c.field} table.
		bound := make(map[string]string)
		methods := make(map[string]*ast.FuncDecl)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if len(n.Elts) == 2 {
					lit, ok1 := n.Elts[0].(*ast.BasicLit)
					ref, ok2 := n.Elts[1].(*ast.UnaryExpr)
					if ok1 && ok2 {
						bound[ref.X.(*ast.SelectorExpr).Sel.Name] = strings.Trim(lit.Value, `"`)
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name != "Stub" {
					methods[n.Name.Name] = n
				}
			}
			return true
		})
		if len(methods) != len(ir.Funcs) || len(bound) != len(ir.Funcs) {
			t.Errorf("%s: %d methods and %d bound calls for %d functions",
				name, len(methods), len(bound), len(ir.Funcs))
		}
		for _, fn := range ir.Funcs {
			m := methods[fn.Method]
			if m == nil {
				t.Errorf("%s: no method %s for %s", name, fn.Method, fn.F.Name)
				continue
			}
			if len(m.Body.List) != 1 {
				t.Errorf("%s.%s: body has %d statements; want one call", name, fn.Method, len(m.Body.List))
				continue
			}
			ret, ok := m.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				t.Errorf("%s.%s: body is not `return <call>`", name, fn.Method)
				continue
			}
			call, ok := ret.Results[0].(*ast.CallExpr)
			sel, _ := call.Fun.(*ast.SelectorExpr)
			if !ok || sel == nil || sel.Sel.Name != "Call" {
				t.Errorf("%s.%s: does not call a BoundCall", name, fn.Method)
				continue
			}
			field := sel.X.(*ast.SelectorExpr).Sel.Name
			if bound[field] != fn.F.Name {
				t.Errorf("%s.%s calls c.%s, bound to %q; want %q", name, fn.Method, field, bound[field], fn.F.Name)
			}
			var args []string
			for _, a := range call.Args {
				args = append(args, a.(*ast.Ident).Name)
			}
			if want := append([]string{"t"}, fn.ArgNames()...); strings.Join(args, ",") != strings.Join(want, ",") {
				t.Errorf("%s.%s passes (%v); want (%v)", name, fn.Method, args, want)
			}
		}
	}
}

// TestPredicatesSelectMechanisms checks that each client's documentation
// names exactly the recovery mechanisms the descriptor-resource model
// selects for its interface, the set the engine applies.
func TestPredicatesSelectMechanisms(t *testing.T) {
	irs := serviceIRs(t)
	for name, want := range map[string]string{
		"lock":  "R0 T1 T0.",
		"event": "R0 T1 T0 D1 G0 U0.",
		"mm":    "R0 T1 D0 D1.",
		"ramfs": "R0 T1 G1.",
		"sched": "R0 T1 T0.",
		"timer": "R0 T1 T0.",
	} {
		if src := generate(t, irs[name]); !strings.Contains(src, "mechanisms "+name+".sg calls for: "+want) {
			t.Errorf("%s client does not name mechanisms %q", name, want)
		}
	}
}

func TestCamel(t *testing.T) {
	for in, want := range map[string]string{
		"evt_split":           "EvtSplit",
		"mman_get_page":       "MmanGetPage",
		"fs_open":             "FsOpen",
		"lock":                "Lock",
		"sched_blk":           "SchedBlk",
		"desc__double":        "DescDouble",
		"timer_periodic_wait": "TimerPeriodicWait",
	} {
		if got := Camel(in); got != want {
			t.Errorf("Camel(%q) = %q; want %q", in, got, want)
		}
	}
}

// TestIRQueries checks the per-function naming the templates read.
func TestIRQueries(t *testing.T) {
	irs := serviceIRs(t)
	if got := irs["event"].Package(); got != "genevent" {
		t.Errorf("Package = %q; want genevent", got)
	}
	split := irs["event"].Funcs[0]
	if split.Method != "EvtSplit" || split.Field != "evtSplit" {
		t.Errorf("evt_split names = %q, %q; want EvtSplit, evtSplit", split.Method, split.Field)
	}
	if got := split.ParamList(); got != "compid, parentEvtid, grp kernel.Word" {
		t.Errorf("evt_split ParamList = %q", got)
	}
	// fs_read takes a `long len`: the Go name must not shadow the builtin.
	for _, fn := range irs["ramfs"].Funcs {
		if fn.F.Name == "fs_read" {
			if got := strings.Join(fn.ArgNames(), ","); got != "compid,fd,buf,lenArg" {
				t.Errorf("fs_read ArgNames = %s", got)
			}
		}
	}
}

func TestIDLSignatureRoundTrip(t *testing.T) {
	sig := serviceIRs(t)["event"].Funcs[0].IDLSignature()
	for _, want := range []string{"evt_split(", "desc_data(componentid_t compid)", "parent_desc(long parent_evtid)"} {
		if !strings.Contains(sig, want) {
			t.Errorf("IDLSignature = %q; missing %q", sig, want)
		}
	}
}

func TestNewIRRejectsInvalidSpec(t *testing.T) {
	spec, err := idl.ParseLax("bad", "int f(desc(long id));")
	if err != nil {
		t.Fatalf("ParseLax: %v", err)
	}
	if _, err := NewIR(spec); err == nil {
		t.Fatal("NewIR accepted an invalid spec")
	}
}
