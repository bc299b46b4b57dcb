package kernel

import "math/rand"

// Reg names one of the eight modeled 32-bit registers of the paper's SWIFI
// target: six general-purpose registers plus the stack and frame pointers.
type Reg int

// The modeled register file (x86-32 naming, as in the paper's platform).
const (
	RegEAX Reg = iota // return-value register
	RegEBX
	RegECX // conventional loop-counter register
	RegEDX
	RegESI
	RegEDI
	RegESP // stack pointer
	RegEBP // frame pointer
	// NumRegs is the register-file size; injections pick uniformly in
	// [0, NumRegs).
	NumRegs
)

// String implements fmt.Stringer.
func (r Reg) String() string {
	names := [...]string{"EAX", "EBX", "ECX", "EDX", "ESI", "EDI", "ESP", "EBP"}
	if r < 0 || int(r) >= len(names) {
		return "REG?"
	}
	return names[r]
}

// RegClass describes what a register holds at the moment of an injection,
// which determines how a bit-flip manifests.
type RegClass int

// Register content classes.
const (
	// ClassDead means the register's value is dead: it will be overwritten
	// before the next read, so a flip is never observed (undetected fault).
	ClassDead RegClass = iota + 1
	// ClassData means the register holds live data that will be written
	// into component state; a flip corrupts that state and is detected by
	// the fail-stop machinery immediately after the corrupting write.
	ClassData
	// ClassPtr means the register holds a pointer into the component's own
	// state; a flipped pointer is caught by the component's validation
	// (fail-stop crash, recoverable).
	ClassPtr
	// ClassLoop means the register is a live loop counter; a flip can turn
	// a bounded loop into an unbounded one (latent fault, system hang).
	ClassLoop
	// ClassStackPtr / ClassFramePtr mark ESP/EBP. A flip that is
	// dereferenced before detection can leave the component's mapped
	// segment entirely and take down the machine (segfault).
	ClassStackPtr
	ClassFramePtr
	// ClassRetVal marks EAX during the return window (PhaseExit), where a
	// flip can propagate a corrupted return value into the client.
	ClassRetVal
)

// RegFile is one thread's modeled register file. The simulated services do
// not compute through it; it exists so the SWIFI injector can flip real bits
// and derive fault outcomes mechanistically.
type RegFile struct {
	Val   [NumRegs]uint32
	Class [NumRegs]RegClass
}

// Simulated address-space layout constants. Components occupy a 16-bit
// (64 KiB) mapped segment; a pointer whose flip moves it by ≥ segmentBits
// leaves mapped memory.
const (
	// StackBase is where simulated thread stacks live.
	StackBase uint32 = 0xbf80_0000
	// HeapBase is where simulated component heaps live.
	HeapBase uint32 = 0x0804_8000
	// SegmentBits is the size, in address bits, of a component's mapped
	// segment. A flipped pointer bit at or above this index points outside
	// the segment.
	SegmentBits = 16
)

// RegProfile characterizes how the code of one component uses registers, as
// a first-order model derived from its workload: how often general-purpose
// registers are dead, hold pointers, or act as loop counters, and how likely
// a corrupted stack/frame pointer is dereferenced before the fail-stop check
// fires. Profiles are the per-service knob that makes (for example) the
// scheduler — whose context-switch path is stack-heavy — suffer more
// segfault outcomes than the filesystem, as observed in the paper.
type RegProfile struct {
	// DeadFrac is the probability a general-purpose register is dead.
	DeadFrac float64
	// PtrFrac is the probability a live GPR holds a pointer into the
	// component's state.
	PtrFrac float64
	// LoopFrac is the probability a live GPR is a loop counter whose
	// corruption produces an unbounded loop.
	LoopFrac float64
	// StackUseFrac is the probability that a corrupted stack/frame pointer
	// is dereferenced (e.g., by a deep call or context switch) before it
	// is reloaded; stack pointers are almost always live, so this is high.
	StackUseFrac float64
	// MappedBits is the log2 extent of the component's mapped memory
	// footprint around its stack: a flipped pointer bit at or above this
	// index leaves mapped memory entirely (machine-level segfault), while
	// lower bits land inside the component (detected, recoverable).
	// Small, stack-heavy components (the scheduler) have small footprints
	// and therefore more segfault outcomes; data-heavy ones (the
	// filesystem) absorb most wild pointers.
	MappedBits int
	// RetValFrac is the probability that, during the return window, EAX's
	// corrupted value still parses as a plausible result and therefore
	// escapes the stub's validation into the client.
	RetValFrac float64
}

// DefaultRegProfile is a middle-of-the-road profile used until a service
// installs its own.
func DefaultRegProfile() RegProfile {
	return RegProfile{
		DeadFrac:     0.05,
		PtrFrac:      0.25,
		LoopFrac:     0.02,
		StackUseFrac: 0.90,
		MappedBits:   20,
		RetValFrac:   0.30,
	}
}

// RegProfile returns the register-usage profile installed for a component.
func (k *Kernel) RegProfile(id ComponentID) RegProfile {
	c := k.comp(id)
	if c == nil {
		return DefaultRegProfile()
	}
	return c.profile
}

// Materialize populates the register file for one moment of execution inside
// a component, drawing general-purpose register classes from the profile.
// ESP/EBP always hold stack addresses; EAX holds the in-flight return value
// during the PhaseExit window (class ClassRetVal) and is otherwise a GPR.
func (f *RegFile) Materialize(p RegProfile, phase InvokePhase, rng *rand.Rand) {
	for r := RegEAX; r < RegESP; r++ {
		if r == RegEAX && phase == PhaseExit {
			// EAX holds the staged, in-flight return value: classify it
			// but do not overwrite it.
			f.Class[r] = ClassRetVal
			continue
		}
		roll := rng.Float64()
		switch {
		case roll < p.DeadFrac:
			f.Class[r] = ClassDead
			f.Val[r] = rng.Uint32()
		case roll < p.DeadFrac+p.PtrFrac:
			f.Class[r] = ClassPtr
			f.Val[r] = HeapBase + rng.Uint32()%(1<<SegmentBits)
		case roll < p.DeadFrac+p.PtrFrac+p.LoopFrac:
			f.Class[r] = ClassLoop
			f.Val[r] = uint32(rng.Intn(256))
		default:
			f.Class[r] = ClassData
			f.Val[r] = uint32(rng.Intn(1 << 20))
		}
	}
	f.Class[RegESP] = ClassStackPtr
	f.Val[RegESP] = StackBase + uint32(rng.Intn(1<<12))&^0x3
	f.Class[RegEBP] = ClassFramePtr
	f.Val[RegEBP] = f.Val[RegESP] + uint32(rng.Intn(1<<8))&^0x3
	if phase == PhaseExit {
		f.Class[RegEAX] = ClassRetVal
	}
}
