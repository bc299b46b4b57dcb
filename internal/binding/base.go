package binding

import (
	"superglue/internal/cbuf"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// invoker is one Base binding: plain invocations of one server with no
// descriptor tracking and no recovery, the fault-intolerant system both
// figures use as the baseline.
type invoker struct {
	k      *kernel.Kernel
	self   kernel.Word
	server kernel.ComponentID
}

func (c *Client) invoker(server kernel.ComponentID) invoker {
	return invoker{k: c.sys.Kernel(), self: kernel.Word(c.cl.ID()), server: server}
}

// baseFS passes paths and data through cbufs, as the stubs do: one buffer
// per path, one reused read buffer delegated to the server, and a fresh
// buffer per write.
type baseFS struct {
	invoker
	cm          *cbuf.Manager
	pathBufs    map[string]cbuf.ID
	readBuf     cbuf.ID
	readBufSize int
}

func (r *baseFS) Open(t *kernel.Thread, path string) (kernel.Word, error) {
	buf, ok := r.pathBufs[path]
	if !ok {
		var err error
		if buf, err = r.share([]byte(path)); err != nil {
			return 0, err
		}
		r.pathBufs[path] = buf
	}
	return r.k.Invoke(t, r.server, ramfs.FnOpen, r.self, kernel.Word(buf), kernel.Word(len(path)))
}

func (r *baseFS) Read(t *kernel.Thread, fd kernel.Word, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	self := cbuf.ComponentID(r.self)
	if n > r.readBufSize {
		if r.readBufSize > 0 {
			if err := r.cm.Free(r.readBuf, self); err != nil {
				return nil, err
			}
		}
		nb, err := r.cm.Alloc(self, n)
		if err != nil {
			return nil, err
		}
		if err := r.cm.Delegate(nb, self, cbuf.ComponentID(r.server)); err != nil {
			return nil, err
		}
		r.readBuf, r.readBufSize = nb, n
	}
	got, err := r.k.Invoke(t, r.server, ramfs.FnRead, r.self, fd, kernel.Word(r.readBuf), kernel.Word(n))
	if err != nil {
		return nil, err
	}
	return r.cm.Read(r.readBuf, self, 0, int(got))
}

func (r *baseFS) Write(t *kernel.Thread, fd kernel.Word, data []byte) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	buf, err := r.share(data)
	if err != nil {
		return 0, err
	}
	n, err := r.k.Invoke(t, r.server, ramfs.FnWrite, r.self, fd, kernel.Word(buf), kernel.Word(len(data)))
	return int(n), err
}

// share copies data into a fresh cbuf and maps it read-only into the server.
func (r *baseFS) share(data []byte) (cbuf.ID, error) {
	self := cbuf.ComponentID(r.self)
	buf, err := r.cm.Alloc(self, len(data))
	if err != nil {
		return 0, err
	}
	if err := r.cm.Write(buf, self, 0, data); err != nil {
		return 0, err
	}
	return buf, r.cm.Map(buf, cbuf.ComponentID(r.server))
}

func (r *baseFS) Lseek(t *kernel.Thread, fd kernel.Word, offset int) (int, error) {
	v, err := r.k.Invoke(t, r.server, ramfs.FnLseek, fd, kernel.Word(offset))
	return int(v), err
}

func (r *baseFS) Close(t *kernel.Thread, fd kernel.Word) error {
	_, err := r.k.Invoke(t, r.server, ramfs.FnClose, r.self, fd)
	return err
}

type baseLock struct{ invoker }

func (r *baseLock) Alloc(t *kernel.Thread) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, lock.FnAlloc, r.self)
}

func (r *baseLock) Take(t *kernel.Thread, id kernel.Word) error {
	_, err := r.k.Invoke(t, r.server, lock.FnTake, r.self, id, kernel.Word(t.ID()))
	return err
}

func (r *baseLock) Release(t *kernel.Thread, id kernel.Word) error {
	_, err := r.k.Invoke(t, r.server, lock.FnRelease, r.self, id, kernel.Word(t.ID()))
	return err
}

type baseEvent struct{ invoker }

func (r *baseEvent) Split(t *kernel.Thread, parent, grp kernel.Word) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, event.FnSplit, r.self, parent, grp)
}

func (r *baseEvent) Wait(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, event.FnWait, r.self, id)
}

func (r *baseEvent) Trigger(t *kernel.Thread, id kernel.Word) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, event.FnTrigger, r.self, id)
}

type baseSched struct{ invoker }

func (r *baseSched) Setup(t *kernel.Thread, prio int) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, sched.FnSetup, r.self, kernel.Word(t.ID()), kernel.Word(prio))
}

func (r *baseSched) Blk(t *kernel.Thread) error {
	_, err := r.k.Invoke(t, r.server, sched.FnBlk, r.self, kernel.Word(t.ID()))
	return err
}

func (r *baseSched) Wakeup(t *kernel.Thread, tid kernel.ThreadID) error {
	_, err := r.k.Invoke(t, r.server, sched.FnWakeup, r.self, kernel.Word(tid))
	return err
}

type baseTimer struct{ invoker }

func (r *baseTimer) Alloc(t *kernel.Thread, period kernel.Time) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, timer.FnAlloc, r.self, kernel.Word(period))
}

func (r *baseTimer) Wait(t *kernel.Thread, id kernel.Word) (kernel.Time, error) {
	v, err := r.k.Invoke(t, r.server, timer.FnWait, r.self, id)
	return kernel.Time(v), err
}

type baseMM struct{ invoker }

func (r *baseMM) GetPage(t *kernel.Thread, vaddr kernel.Word) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, mm.FnGetPage, r.self, vaddr, 0)
}

func (r *baseMM) AliasPage(t *kernel.Thread, srcVaddr kernel.Word, dstSpd kernel.ComponentID, dstVaddr kernel.Word) (kernel.Word, error) {
	return r.k.Invoke(t, r.server, mm.FnAliasPage, r.self, srcVaddr, kernel.Word(dstSpd), dstVaddr)
}

func (r *baseMM) ReleasePage(t *kernel.Thread, vaddr kernel.Word) error {
	_, err := r.k.Invoke(t, r.server, mm.FnReleasePage, r.self, vaddr)
	return err
}
