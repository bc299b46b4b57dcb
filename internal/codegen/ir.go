// Package codegen is the SuperGlue compiler back end: it turns the
// intermediate representation of an interface specification into the
// typed client that application code links against (§IV-B).
//
// The recovery logic itself is not emitted. Descriptor tracking, fault
// update, the escalation ladder, recovery walks and upcalls are
// core.ClientStub, the one engine every service runs, configured by the
// same specification when the server registers. What differs per
// interface, and so what the compiler emits, is the typed surface: one
// method per IDL function, with the IDL's parameter names, each calling
// the core.BoundCall bound for that function at construction.
package codegen

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"superglue/internal/core"
)

// IR is the compiler's intermediate representation for one interface: the
// validated specification and its per-function naming.
type IR struct {
	Spec *core.Spec
	// Funcs are the per-function IRs, in declaration order.
	Funcs []*FnIR
}

// FnIR is the per-function slice of the IR.
type FnIR struct {
	F *core.FuncSpec
	// Method is the Go method name (evt_split → EvtSplit).
	Method string
	// Field is the client field holding the function's bound call
	// (evt_split → evtSplit).
	Field string
}

// NewIR builds the IR for a validated specification.
func NewIR(spec *core.Spec) (*IR, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ir := &IR{Spec: spec}
	for _, f := range spec.Funcs {
		ir.Funcs = append(ir.Funcs, &FnIR{F: f, Method: Camel(f.Name), Field: lowerCamel(f.Name)})
	}
	return ir, nil
}

// Package returns the generated package name (gen + service).
func (ir *IR) Package() string {
	return "gen" + strings.Map(func(r rune) rune {
		if r == '_' || r == '-' {
			return -1
		}
		return r
	}, ir.Spec.Service)
}

// Camel converts an IDL identifier to an exported Go identifier
// (evt_split → EvtSplit).
func Camel(s string) string {
	parts := strings.Split(s, "_")
	var b strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		b.WriteString(strings.ToUpper(p[:1]))
		b.WriteString(p[1:])
	}
	return b.String()
}

// lowerCamel converts an IDL identifier to an unexported Go identifier.
// IDL parameter names are C-flavored and may collide with Go's
// predeclared identifiers or keywords (fs_read takes a `long len`);
// those are renamed with an Arg suffix so generated code never shadows
// a builtin (enforced by the shadowbuiltin analyzer in `make lint`).
func lowerCamel(s string) string {
	c := Camel(s)
	if c == "" {
		return c
	}
	n := strings.ToLower(c[:1]) + c[1:]
	if token.IsKeyword(n) || types.Universe.Lookup(n) != nil {
		return n + "Arg"
	}
	return n
}

// ParamList renders a method's Go parameter list (all word-typed, matching
// register-based invocations).
func (fn *FnIR) ParamList() string {
	if len(fn.F.Params) == 0 {
		return ""
	}
	return strings.Join(fn.ArgNames(), ", ") + " kernel.Word"
}

// ArgNames renders the method's argument identifiers in order.
func (fn *FnIR) ArgNames() []string {
	var parts []string
	for _, p := range fn.F.Params {
		parts = append(parts, lowerCamel(p.Name))
	}
	return parts
}

// IDLSignature renders the original IDL prototype (doc comments).
func (fn *FnIR) IDLSignature() string {
	var parts []string
	for _, p := range fn.F.Params {
		role := ""
		switch p.Role {
		case core.RoleDesc:
			role = "desc"
		case core.RoleDescData:
			role = "desc_data"
		case core.RoleParentDesc:
			role = "parent_desc"
		case core.RoleDescNS:
			role = "desc_ns"
		case core.RoleParentNS:
			role = "parent_ns"
		}
		decl := fmt.Sprintf("%s %s", p.CType, p.Name)
		if role != "" {
			decl = fmt.Sprintf("%s(%s)", role, decl)
		}
		parts = append(parts, decl)
	}
	ret := fn.F.RetCType
	if ret == "" {
		ret = "void"
	}
	return fmt.Sprintf("%s %s(%s)", ret, fn.F.Name, strings.Join(parts, ", "))
}
