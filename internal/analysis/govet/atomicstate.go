package govet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AtomicState enforces accessor discipline for fields that participate in
// lock-free publication protocols. A struct field annotated with
//
//	//sgvet:atomicstate accessors=loadFoo,storeFoo
//
// may only be selected from functions (or methods) named in the accessors
// list. The kernel uses this to fence its two atomic words, the packed
// (epoch<<1|faulty) component state and the halted flag: they are the only
// machine state other goroutines may read directly, so every access goes
// through the helpers that keep them consistent.
var AtomicState = &Analyzer{
	Name: "atomicstate",
	Doc:  "restrict annotated struct fields to their declared accessor set",
	Run:  runAtomicState,
}

const atomicStateMarker = "sgvet:atomicstate"

type guardedField struct {
	owner     string // struct type name, for messages
	accessors map[string]bool
}

func runAtomicState(p *Pass) error {
	guarded := make(map[types.Object]*guardedField)
	for _, f := range p.Files {
		collectGuarded(p, f, guarded)
	}
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnName := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := p.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				g, ok := guarded[selection.Obj()]
				if !ok || g.accessors[fnName] {
					return true
				}
				p.Reportf(sel.Sel.Pos(),
					"field %s.%s is atomicstate-guarded; access it only via %s",
					g.owner, sel.Sel.Name, strings.Join(sortedNames(g.accessors), ", "))
				return true
			})
		}
	}
	return nil
}

// collectGuarded finds fields whose doc or trailing comment carries the
// atomicstate marker and resolves their accessor lists.
func collectGuarded(p *Pass, f *ast.File, out map[types.Object]*guardedField) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				accessors, ok := fieldAccessors(field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						out[obj] = &guardedField{owner: ts.Name.Name, accessors: accessors}
					}
				}
			}
		}
	}
}

func fieldAccessors(field *ast.Field) (map[string]bool, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, atomicStateMarker) {
				continue
			}
			accessors := make(map[string]bool)
			for _, kv := range strings.Fields(strings.TrimPrefix(text, atomicStateMarker)) {
				if names, ok := strings.CutPrefix(kv, "accessors="); ok {
					for _, n := range strings.Split(names, ",") {
						if n = strings.TrimSpace(n); n != "" {
							accessors[n] = true
						}
					}
				}
			}
			return accessors, true
		}
	}
	return nil, false
}

func sortedNames(set map[string]bool) []string {
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
