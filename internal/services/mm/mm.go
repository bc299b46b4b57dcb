// Package mm implements the memory mapping manager of §II-D: it maintains
// virtual-to-physical mappings following the recursive address-space model.
// mman_get_page creates a root mapping from a fresh physical frame,
// mman_alias_page shares memory by creating a child mapping in (possibly)
// another protection domain, and mman_release_page revokes a mapping and
// the entire subtree aliased from it.
//
// A fault in the MM corrupts the mapping trees; µ-rebooting resets them, and
// interface-driven recovery rebuilds mappings on demand, parents before
// children (D1), with the whole subtree reconstructed before a recursive
// revocation (D0).
package mm

import (
	_ "embed"
	"fmt"
	"sync"

	"superglue/internal/core"
	"superglue/internal/gen/genmm"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

//go:embed mm.sg
var idlSrc string

// Interface function names.
const (
	FnGetPage     = "mman_get_page"
	FnAliasPage   = "mman_alias_page"
	FnReleasePage = "mman_release_page"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("mm", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text.
func IDLSource() string { return idlSrc }

// Register boots the memory manager into a system.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: mapping operations touch page-table-like structures.
	if err := sys.Kernel().SetInvokeBudget(comp, 500); err != nil {
		return 0, err
	}
	return comp, nil
}

// mapKey identifies a mapping: a virtual address within a protection domain.
type mapKey struct {
	spd   kernel.Word
	vaddr kernel.Word
}

// mapping is one node of a frame's alias tree.
type mapping struct {
	frame    kernel.Word
	parent   *mapping
	key      mapKey
	children map[mapKey]*mapping
	flags    kernel.Word
}

// Server is the memory manager's implementation.
type Server struct {
	k         *kernel.Kernel
	self      kernel.ComponentID
	nextFrame kernel.Word
	maps      map[mapKey]*mapping
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "mm" }

// Init implements kernel.Service.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.maps = make(map[mapKey]*mapping)
	s.nextFrame = kernel.Word(bc.Epoch) << 20
	return nil
}

// Mappings returns the number of live mappings (reflection/testing).
func (s *Server) Mappings() int { return len(s.maps) }

// Frame returns the physical frame backing a mapping (testing).
func (s *Server) Frame(spd, vaddr kernel.Word) (kernel.Word, bool) {
	m, ok := s.maps[mapKey{spd, vaddr}]
	if !ok {
		return 0, false
	}
	return m.frame, true
}

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("mm: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnGetPage:
		if err := need(3); err != nil {
			return 0, err
		}
		key := mapKey{args[0], args[1]}
		if key.vaddr <= 0 {
			return 0, fmt.Errorf("mm: invalid vaddr %d", key.vaddr)
		}
		if _, exists := s.maps[key]; exists {
			return 0, fmt.Errorf("mm: vaddr %d already mapped in component %d", key.vaddr, key.spd)
		}
		s.nextFrame++
		s.maps[key] = &mapping{
			frame:    s.nextFrame,
			key:      key,
			children: make(map[mapKey]*mapping),
			flags:    args[2],
		}
		return key.vaddr, nil
	case FnAliasPage:
		if err := need(4); err != nil {
			return 0, err
		}
		src := mapKey{args[0], args[1]}
		dst := mapKey{args[2], args[3]}
		parent, ok := s.maps[src]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if dst.vaddr <= 0 {
			return 0, fmt.Errorf("mm: invalid alias vaddr %d", dst.vaddr)
		}
		if _, exists := s.maps[dst]; exists {
			return 0, fmt.Errorf("mm: alias target %d already mapped in component %d", dst.vaddr, dst.spd)
		}
		child := &mapping{
			frame:    parent.frame,
			parent:   parent,
			key:      dst,
			children: make(map[mapKey]*mapping),
		}
		parent.children[dst] = child
		s.maps[dst] = child
		return dst.vaddr, nil
	case FnReleasePage:
		if err := need(2); err != nil {
			return 0, err
		}
		key := mapKey{args[0], args[1]}
		m, ok := s.maps[key]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		s.revoke(m)
		if m.parent != nil {
			delete(m.parent.children, key)
		}
		return 0, nil
	default:
		return 0, kernel.DispatchError("mm", fn)
	}
}

// revoke removes a mapping and, recursively, every mapping aliased from it.
func (s *Server) revoke(m *mapping) {
	for _, c := range m.children {
		s.revoke(c)
	}
	m.children = make(map[mapKey]*mapping)
	delete(s.maps, m.key)
}

// Client is the typed client API for the memory manager. It holds the
// sgc-generated client and adds the calling component's identity and
// typed component IDs to each call.
type Client struct {
	gen  *genmm.Client
	self kernel.Word
}

// NewClient binds a client component to the memory manager.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := genmm.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{gen: gen, self: kernel.Word(cl.ID())}, nil
}

// Stub exposes the underlying stub.
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// GetPage creates a root mapping for vaddr in the calling component.
func (c *Client) GetPage(t *kernel.Thread, vaddr kernel.Word) (kernel.Word, error) {
	return c.gen.MmanGetPage(t, c.self, vaddr, 0)
}

// AliasPage aliases this component's mapping at srcVaddr into component
// dstSpd at dstVaddr.
func (c *Client) AliasPage(t *kernel.Thread, srcVaddr kernel.Word, dstSpd kernel.ComponentID, dstVaddr kernel.Word) (kernel.Word, error) {
	return c.gen.MmanAliasPage(t, c.self, srcVaddr, kernel.Word(dstSpd), dstVaddr)
}

// AliasFrom aliases a mapping owned by srcSpd at srcVaddr (previously
// aliased to this client) into dstSpd; used to build alias chains.
func (c *Client) AliasFrom(t *kernel.Thread, srcSpd kernel.ComponentID, srcVaddr kernel.Word, dstSpd kernel.ComponentID, dstVaddr kernel.Word) (kernel.Word, error) {
	return c.gen.MmanAliasPage(t, kernel.Word(srcSpd), srcVaddr, kernel.Word(dstSpd), dstVaddr)
}

// ReleasePage revokes this component's mapping at vaddr and its subtree.
func (c *Client) ReleasePage(t *kernel.Thread, vaddr kernel.Word) error {
	_, err := c.gen.MmanReleasePage(t, c.self, vaddr)
	return err
}
