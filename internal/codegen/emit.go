package codegen

import (
	"fmt"
	"go/format"
	"strings"
)

// writer accumulates generated source with indentation helpers.
type writer struct {
	b      strings.Builder
	indent int
}

func (w *writer) in()  { w.indent++ }
func (w *writer) out() { w.indent-- }

// p writes one line at the current indentation.
func (w *writer) p(format string, args ...any) {
	for i := 0; i < w.indent; i++ {
		w.b.WriteByte('\t')
	}
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

// nl writes a blank line.
func (w *writer) nl() { w.b.WriteByte('\n') }

// Fragment is one named template of the typed client. Every fragment is
// emitted for every interface: the per-interface variation (which
// functions, which parameters, which mechanisms) is in the IR the
// template walks, and the recovery semantics are the engine's.
type Fragment struct {
	// Name identifies the fragment in the registry.
	Name string
	// Emit is the template body.
	Emit func(ir *IR, w *writer)
}

// Registry returns the names of the typed client's templates, in
// emission order.
func Registry() []string {
	var names []string
	for _, f := range fragments() {
		names = append(names, f.Name)
	}
	return names
}

// ClientFile is the name of the one file sgc emits per interface.
const ClientFile = "client.go"

// Generate emits the typed client for one interface, keyed by file name.
func Generate(ir *IR) (map[string]string, error) {
	w := &writer{}
	for _, fr := range fragments() {
		fr.Emit(ir, w)
	}
	out, err := format.Source([]byte(w.b.String()))
	if err != nil {
		return nil, fmt.Errorf("codegen: typed client for %s does not parse: %w", ir.Spec.Service, err)
	}
	return map[string]string{ClientFile: string(out)}, nil
}
