// Package ramfs implements the in-memory filesystem (RamFS) of §II-C. Files
// live in component memory; their contents are redundantly stored in the
// storage component as ⟨id, offset, length, data⟩ slices, where the id is a
// hash of the file's path and the data is a zero-copy buffer reference
// (mechanism G1). Paths and bulk data cross the interface as cbuf
// references, matching COMPOSITE's zero-copy buffer subsystem.
//
// After a µ-reboot, a replayed fs_open restores the file's contents from
// the storage component, and the sm_restore'd fs_lseek pushes the tracked
// offset back — the paper's "open and lseek" recovery walk.
package ramfs

import (
	_ "embed"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/gen/genramfs"
	"superglue/internal/idl"
	"superglue/internal/kernel"
	"superglue/internal/storage"
)

//go:embed ramfs.sg
var idlSrc string

// Interface function names.
const (
	FnOpen   = "fs_open"
	FnRead   = "fs_read"
	FnWrite  = "fs_write"
	FnLseek  = "fs_lseek"
	FnClose  = "fs_close"
	FnUnlink = "fs_unlink"
)

// spec parses the embedded IDL once per process.
var spec = sync.OnceValues(func() (*core.Spec, error) {
	return idl.Parse("ramfs", idlSrc)
})

// Spec returns the component's parsed IDL specification. It is parsed
// once per process and shared: callers must not mutate the result.
func Spec() (*core.Spec, error) {
	return spec()
}

// IDLSource returns the raw IDL text.
func IDLSource() string { return idlSrc }

// Register boots the RamFS into a system. The server depends on the
// system's cbuf manager and storage component.
func Register(sys *core.System) (kernel.ComponentID, error) {
	spec, err := Spec()
	if err != nil {
		return 0, err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &Server{sys: sys} })
	if err != nil {
		return 0, err
	}
	// Watchdog budget: file reads/writes move bulk data, the longest
	// legitimate invocations in the system.
	if err := sys.Kernel().SetInvokeBudget(comp, 1000); err != nil {
		return 0, err
	}
	return comp, nil
}

// file is one in-memory file.
type file struct {
	id      kernel.Word // hash of the path: the storage-component resource id
	path    string
	content []byte
}

// openFile is one file descriptor's server-side state.
type openFile struct {
	f      *file
	offset int
}

// Server is the RamFS implementation.
type Server struct {
	sys    *core.System
	k      *kernel.Kernel
	self   kernel.ComponentID
	class  storage.Class
	nextFD kernel.Word
	files  map[string]*file
	fds    map[kernel.Word]*openFile
}

var _ kernel.Service = (*Server)(nil)

// Name implements kernel.Service.
func (s *Server) Name() string { return "ramfs" }

// Init implements kernel.Service.
func (s *Server) Init(bc *kernel.BootContext) error {
	s.k = bc.Kernel
	s.self = bc.Self
	s.files = make(map[string]*file)
	s.fds = make(map[kernel.Word]*openFile)
	s.nextFD = kernel.Word(bc.Epoch) << 20
	if class, ok := s.sys.Class(bc.Self); ok {
		s.class = class
	}
	return nil
}

// PathID returns the storage resource id for a path (the paper's "hash on
// its path").
func PathID(path string) kernel.Word {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	return kernel.Word(h.Sum64() & 0x7fff_ffff_ffff_ffff)
}

// Dispatch implements kernel.Service.
func (s *Server) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("ramfs: %s needs %d args, got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case FnOpen:
		if err := need(3); err != nil {
			return 0, err
		}
		return s.open(args[1], int(args[2]))
	case FnRead:
		if err := need(4); err != nil {
			return 0, err
		}
		return s.read(args[1], cbuf.ID(args[2]), int(args[3]))
	case FnWrite:
		if err := need(4); err != nil {
			return 0, err
		}
		return s.write(t, args[1], cbuf.ID(args[2]), int(args[3]))
	case FnLseek:
		if err := need(2); err != nil {
			return 0, err
		}
		of, ok := s.fds[args[0]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if args[1] < 0 {
			return 0, fmt.Errorf("ramfs: lseek to negative offset %d", args[1])
		}
		of.offset = int(args[1])
		return kernel.Word(of.offset), nil
	case FnClose:
		if err := need(2); err != nil {
			return 0, err
		}
		if _, ok := s.fds[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(s.fds, args[1])
		return 0, nil
	case FnUnlink:
		if err := need(2); err != nil {
			return 0, err
		}
		return s.unlink(t, args[1])
	default:
		return 0, kernel.DispatchError("ramfs", fn)
	}
}

// open resolves the path named by a cbuf reference and returns a fresh fd.
// A file unknown to this (possibly just µ-rebooted) instance is restored
// from the storage component if it has saved data (G1), created empty
// otherwise.
func (s *Server) open(pathBuf kernel.Word, pathLen int) (kernel.Word, error) {
	raw, err := s.sys.Cbufs().Read(cbuf.ID(pathBuf), cbuf.ComponentID(s.self), 0, pathLen)
	if err != nil {
		return 0, fmt.Errorf("ramfs: reading path buffer: %w", err)
	}
	path := string(raw)
	f, ok := s.files[path]
	if !ok {
		f = &file{id: PathID(path), path: path}
		// G1: a file that survived a fault has its contents in the storage
		// component; restore them on first access.
		if s.sys.Store().HasData(s.class, f.id) {
			content, rerr := s.sys.Store().ReadAll(s.class, f.id)
			if rerr != nil {
				if errors.Is(rerr, storage.ErrCorrupted) {
					// Fail stop: rebuilding the file from a corrupted
					// redundant copy would serve silently wrong data. Fault
					// ourselves with the storage-corruption classification;
					// the interface declares it unrecoverable
					// (sm_fault(storage_corruption, degrade)), so clients
					// degrade instead of µ-reboot-looping into the same
					// corrupted extent.
					return 0, s.k.FaultNow(s.self, fault.KindStorageCorruption, fault.SevCritical)
				}
				return 0, fmt.Errorf("ramfs: restoring %q from storage: %w", path, rerr)
			}
			f.content = content
		}
		s.files[path] = f
	}
	s.nextFD++
	s.fds[s.nextFD] = &openFile{f: f}
	return s.nextFD, nil
}

// read copies up to n bytes from the file at the descriptor's offset into
// the caller's (write-delegated) buffer, advancing the offset. Returns the
// number of bytes read.
func (s *Server) read(fd kernel.Word, buf cbuf.ID, n int) (kernel.Word, error) {
	of, ok := s.fds[fd]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	if n < 0 {
		return 0, fmt.Errorf("ramfs: negative read length %d", n)
	}
	avail := len(of.f.content) - of.offset
	if avail <= 0 {
		return 0, nil
	}
	if n > avail {
		n = avail
	}
	if err := s.sys.Cbufs().Write(buf, cbuf.ComponentID(s.self), 0, of.f.content[of.offset:of.offset+n]); err != nil {
		return 0, fmt.Errorf("ramfs: writing result buffer: %w", err)
	}
	of.offset += n
	return kernel.Word(n), nil
}

// write appends/overwrites n bytes from the caller's buffer at the
// descriptor's offset, saving the extent redundantly in the storage
// component within the same critical region (G1; §III-C notes the storage
// interaction must be atomic with the RamFS update).
func (s *Server) write(t *kernel.Thread, fd kernel.Word, buf cbuf.ID, n int) (kernel.Word, error) {
	of, ok := s.fds[fd]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	data, err := s.sys.Cbufs().Read(buf, cbuf.ComponentID(s.self), 0, n)
	if err != nil {
		return 0, fmt.Errorf("ramfs: reading source buffer: %w", err)
	}
	f := of.f
	if end := of.offset + n; end > len(f.content) {
		f.content = append(f.content, make([]byte, end-len(f.content))...)
	}
	copy(f.content[of.offset:], data)
	// Redundant save: the storage component retains the zero-copy buffer
	// reference for post-reboot restoration.
	if _, err := s.k.Invoke(t, s.sys.StorageComp(), storage.FnSaveSlice,
		kernel.Word(s.class), f.id, kernel.Word(of.offset), kernel.Word(buf), kernel.Word(n)); err != nil {
		return 0, fmt.Errorf("ramfs: saving extent to storage: %w", err)
	}
	of.offset += n
	return kernel.Word(n), nil
}

// unlink removes the file behind fd: the name disappears, the descriptor is
// closed, and — because the resource itself is gone — its redundant slices
// are dropped from the storage component, so recovery cannot resurrect it.
func (s *Server) unlink(t *kernel.Thread, fd kernel.Word) (kernel.Word, error) {
	of, ok := s.fds[fd]
	if !ok {
		return 0, kernel.ErrInvalidDescriptor
	}
	delete(s.fds, fd)
	delete(s.files, of.f.path)
	if _, err := s.k.Invoke(t, s.sys.StorageComp(), storage.FnDrop,
		kernel.Word(s.class), of.f.id); err != nil {
		return 0, fmt.Errorf("ramfs: dropping storage slices for %q: %w", of.f.path, err)
	}
	return 0, nil
}

// Client is the typed client API for the RamFS, managing the zero-copy
// buffers that carry paths and data across the interface.
type Client struct {
	cm   *cbuf.Manager
	self kernel.Word
	comp kernel.ComponentID // the RamFS component (for read delegation)
	// pathBufs retains one buffer per opened path: the tracked pathbuf
	// reference must stay valid for recovery replay while fds are open.
	pathBufs map[string]cbuf.ID
	// readBuf is the reusable, server-delegated result buffer (grown on
	// demand), matching the cbuf discipline of reusing transfer buffers.
	readBuf     cbuf.ID
	readBufSize int

	gen *genramfs.Client
}

// NewClient binds a client component to the RamFS.
func NewClient(cl *core.Client, server kernel.ComponentID) (*Client, error) {
	gen, err := genramfs.NewClient(cl, server)
	if err != nil {
		return nil, err
	}
	return &Client{
		cm:       cl.System().Cbufs(),
		self:     kernel.Word(cl.ID()),
		comp:     server,
		pathBufs: make(map[string]cbuf.ID),
		gen:      gen,
	}, nil
}

// Stub exposes the underlying stub.
func (c *Client) Stub() *core.ClientStub { return c.gen.Stub() }

// Open opens (creating if necessary) the file at path.
func (c *Client) Open(t *kernel.Thread, path string) (kernel.Word, error) {
	buf, ok := c.pathBufs[path]
	if !ok {
		var err error
		buf, err = c.cm.Alloc(cbuf.ComponentID(c.self), len(path))
		if err != nil {
			return 0, fmt.Errorf("ramfs client: allocating path buffer: %w", err)
		}
		if err := c.cm.Write(buf, cbuf.ComponentID(c.self), 0, []byte(path)); err != nil {
			return 0, fmt.Errorf("ramfs client: writing path buffer: %w", err)
		}
		if err := c.cm.Map(buf, cbuf.ComponentID(c.comp)); err != nil {
			return 0, fmt.Errorf("ramfs client: mapping path buffer to server: %w", err)
		}
		c.pathBufs[path] = buf
	}
	return c.gen.FsOpen(t, c.self, kernel.Word(buf), kernel.Word(len(path)))
}

// Write writes data at the descriptor's offset. Each write uses a fresh
// retained buffer: the storage component keeps the reference for recovery,
// so the buffer must not be reused (the producer-retention discipline of
// the cbuf subsystem).
func (c *Client) Write(t *kernel.Thread, fd kernel.Word, data []byte) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	buf, err := c.cm.Alloc(cbuf.ComponentID(c.self), len(data))
	if err != nil {
		return 0, fmt.Errorf("ramfs client: allocating data buffer: %w", err)
	}
	if err := c.cm.Write(buf, cbuf.ComponentID(c.self), 0, data); err != nil {
		return 0, fmt.Errorf("ramfs client: filling data buffer: %w", err)
	}
	if err := c.cm.Map(buf, cbuf.ComponentID(c.comp)); err != nil {
		return 0, fmt.Errorf("ramfs client: mapping data buffer to server: %w", err)
	}
	n, err := c.gen.FsWrite(t, c.self, fd, kernel.Word(buf), kernel.Word(len(data)))
	return int(n), err
}

// Read reads up to n bytes from the descriptor's offset, through a reused
// server-delegated result buffer.
func (c *Client) Read(t *kernel.Thread, fd kernel.Word, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if n > c.readBufSize {
		if c.readBufSize > 0 {
			if err := c.cm.Free(c.readBuf, cbuf.ComponentID(c.self)); err != nil {
				return nil, fmt.Errorf("ramfs client: releasing read buffer: %w", err)
			}
		}
		buf, err := c.cm.Alloc(cbuf.ComponentID(c.self), n)
		if err != nil {
			return nil, fmt.Errorf("ramfs client: allocating read buffer: %w", err)
		}
		if err := c.cm.Delegate(buf, cbuf.ComponentID(c.self), cbuf.ComponentID(c.comp)); err != nil {
			return nil, fmt.Errorf("ramfs client: delegating read buffer: %w", err)
		}
		c.readBuf, c.readBufSize = buf, n
	}
	got, err := c.gen.FsRead(t, c.self, fd, kernel.Word(c.readBuf), kernel.Word(n))
	if err != nil {
		return nil, err
	}
	return c.cm.Read(c.readBuf, cbuf.ComponentID(c.self), 0, int(got))
}

// Lseek sets the descriptor's absolute offset.
func (c *Client) Lseek(t *kernel.Thread, fd kernel.Word, offset int) (int, error) {
	v, err := c.gen.FsLseek(t, fd, kernel.Word(offset))
	return int(v), err
}

// Close closes the descriptor.
func (c *Client) Close(t *kernel.Thread, fd kernel.Word) error {
	_, err := c.gen.FsClose(t, c.self, fd)
	return err
}

// Unlink removes the file behind fd (closing the descriptor) and drops its
// redundant storage, so a later µ-reboot cannot resurrect it.
func (c *Client) Unlink(t *kernel.Thread, fd kernel.Word) error {
	_, err := c.gen.FsUnlink(t, c.self, fd)
	return err
}
