package kernel

import (
	"sort"

	"superglue/internal/fault"
)

// The kernel watchdog closes the latent-fault gap of the paper's fail-stop
// model. The paper detects faults as hardware exceptions; an unbounded loop
// raises no exception, so the machine hangs and the campaign books the trial
// as "not recovered (other)". A watchdog timer — standard equipment on the
// embedded platforms SuperGlue targets — converts such hangs into component
// faults instead:
//
//   - A thread spinning inside a component (HangCurrent, the SWIFI
//     EffectHang manifestation) burns its per-component virtual-time
//     invocation budget; when the budget expires the watchdog fires,
//     attributes the hang to the innermost component on the thread's
//     invocation stack, marks that component failed, and unwinds the
//     invocation with the same *Fault a fail-stop detection would deliver.
//     The client stub then µ-reboots and retries exactly as for any other
//     fault.
//
//   - A scheduling deadlock (live threads, none runnable, none sleeping,
//     no idle work) is attributed to the component the most threads are
//     blocked inside; that component is marked failed and its threads are
//     diverted back to their clients with a pending *Fault, so recovery —
//     not machine death — resolves the wedge. Interventions are bounded:
//     a deadlock the watchdog cannot resolve within the budget still halts
//     the machine with ErrHang.
//
// Only hangs attributable to no component (a thread spinning in home/
// application code, or threads blocked outside any component) remain
// terminal: with the watchdog enabled, Run returns ErrHang exactly for
// those.
//
// The watchdog is off by default so the baseline Table II campaign keeps
// the paper's fail-stop semantics; EnableWatchdog opts a machine in.

// Default watchdog parameters.
const (
	// DefaultWatchdogBudget is the per-component invocation budget in
	// simulated microseconds: the virtual time a spinning thread consumes
	// before the watchdog timer fires.
	DefaultWatchdogBudget Time = 1000
	// DefaultWatchdogInterventions bounds deadlock-attribution
	// interventions per run; past it the machine halts with ErrHang.
	DefaultWatchdogInterventions = 32
)

// WatchdogConfig parameterizes the kernel watchdog. Zero fields take the
// defaults above.
type WatchdogConfig struct {
	// Budget is the default per-component virtual-time invocation budget
	// (µs) charged when a hang is caught. SetInvokeBudget overrides it per
	// component.
	Budget Time
	// MaxInterventions bounds the number of deadlock attributions; the
	// watchdog refuses further interventions once exhausted, so a
	// non-converging divert/redo/block cycle still terminates in ErrHang.
	MaxInterventions int
}

// WatchdogStats reports what the watchdog did during a run.
type WatchdogStats struct {
	// HangsCaught counts unbounded loops converted into component faults.
	HangsCaught int
	// DeadlocksAttributed counts no-runnable conditions attributed to a
	// component and resolved by diverting its blocked threads.
	DeadlocksAttributed int
	// Unattributable counts hangs no component could be blamed for; these
	// remain terminal (ErrHang).
	Unattributable int
	// LastComp is the most recently blamed component.
	LastComp ComponentID
}

// EnableWatchdog turns the watchdog on with the given configuration.
func (k *Kernel) EnableWatchdog(cfg WatchdogConfig) {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultWatchdogBudget
	}
	if cfg.MaxInterventions <= 0 {
		cfg.MaxInterventions = DefaultWatchdogInterventions
	}
	k.wdEnabled = true
	k.wdBudget = cfg.Budget
	k.wdMax = cfg.MaxInterventions
}

// WatchdogStats returns a snapshot of the watchdog counters.
func (k *Kernel) WatchdogStats() WatchdogStats { return k.wdStats }

// SetInvokeBudget overrides the watchdog's virtual-time invocation budget
// for one component (0 restores the config default). Services set this at
// registration to reflect how long their longest legitimate operation runs.
func (k *Kernel) SetInvokeBudget(comp ComponentID, budget Time) error {
	c, err := k.lookup(comp)
	if err != nil {
		return err
	}
	c.budget = budget
	return nil
}

// InvokeBudget returns the effective watchdog budget for a component.
func (k *Kernel) InvokeBudget(comp ComponentID) Time {
	if c := k.comp(comp); c != nil && c.budget > 0 {
		return c.budget
	}
	if k.wdBudget > 0 {
		return k.wdBudget
	}
	return DefaultWatchdogBudget
}

// watchdogHang handles a hang on the running thread. If the watchdog
// is armed and the thread is executing inside a component, it charges the
// component's invocation budget to the virtual clock (the watchdog timer
// elapsing), marks the component failed, and arms a *Fault that Invoke
// delivers when the hook returns — converting the latent fault into the
// ordinary fail-stop recovery path. Returns false when the hang must take
// the legacy park-forever path (watchdog off, or unattributable).
func (k *Kernel) watchdogHang(t *Thread) bool {
	if !k.wdEnabled {
		return false
	}
	comp := t.topOfStack()
	if comp == 0 {
		k.wdStats.Unattributable++
		return false
	}
	c := k.comp(comp)
	if c == nil {
		k.wdStats.Unattributable++
		return false
	}
	// The spinning thread burns the budget on its own core; the global
	// mirror tracks it (t is the running thread, so the mirror shows its
	// core's clock).
	budget := k.InvokeBudget(comp)
	k.cores[t.core].clock += budget
	k.clock += budget
	epoch, _ := c.snapshot()
	// Classify the hang: HangCurrentAs stamps the thread with the kind it
	// is simulating (livelock vs plain hang); legacy HangCurrent leaves it
	// zero, which means KindHang.
	kind := t.hangKind
	if kind == fault.KindUnknown {
		kind = fault.KindHang
	}
	t.hangKind = fault.KindUnknown
	sev := fault.DefaultSeverity(kind)
	c.markFaultyAs(kind, sev)
	k.wdStats.HangsCaught++
	k.wdStats.LastComp = comp
	t.watchdogFault = &Fault{Comp: comp, Epoch: epoch, Kind: kind, Severity: sev}
	k.tracer.RecordFault(int32(comp), int32(t.id), fnWatchdogHang, int64(k.clock), epoch, kind, sev)
	return true
}

// watchdogDivert attributes a no-runnable condition (live threads,
// none runnable, none sleeping, no idle work) to the component the most
// blocked threads are stuck inside, marks it failed, and diverts those
// threads back to their clients with a pending *Fault — the same eager
// wakeup a µ-reboot performs, but triggered by the watchdog rather than a
// detected exception. Returns true when it made threads runnable, so the
// scheduler should retry instead of halting.
func (k *Kernel) watchdogDivert() bool {
	if !k.wdEnabled || k.Halted() {
		return false
	}
	if k.wdStats.DeadlocksAttributed >= k.wdMax {
		return false
	}
	// Attribute to the component with the most blocked threads. The
	// candidate walk is per-core: each core contributes the threads homed
	// on it, so a deadlock cycle that spans cores (A on core 0 waiting in a
	// component whose threads wait on core 1 and vice versa) aggregates
	// candidates from every core rather than assuming one global run queue.
	// Counts are summed across cores; the argmax tie-break stays
	// deterministic (lowest component ID).
	counts := make(map[ComponentID]int)
	for ci := range k.cores {
		for _, t := range k.threads {
			if int(t.core) != ci {
				continue
			}
			if t.state == ThreadBlocked && t.blockedIn != 0 {
				counts[t.blockedIn]++
			}
		}
	}
	suspects := make([]ComponentID, 0, len(counts))
	for comp := range counts {
		suspects = append(suspects, comp)
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
	var blamed ComponentID
	for _, comp := range suspects {
		if blamed == 0 || counts[comp] > counts[blamed] {
			blamed = comp
		}
	}
	if blamed == 0 {
		k.wdStats.Unattributable++
		return false
	}
	c := k.comp(blamed)
	if c == nil {
		k.wdStats.Unattributable++
		return false
	}
	// The watchdog timer is machine-level: every core's clock advances by
	// the budget (with one core this is the legacy global-clock charge).
	budget := k.InvokeBudget(blamed)
	for ci := range k.cores {
		k.cores[ci].clock += budget
	}
	k.clock += budget
	epoch, _ := c.snapshot()
	c.markFaultyAs(fault.KindHang, fault.DefaultSeverity(fault.KindHang))
	k.wdStats.DeadlocksAttributed++
	k.wdStats.LastComp = blamed
	k.tracer.RecordFault(int32(blamed), 0, fnWatchdogDeadlock, int64(k.clock), epoch,
		fault.KindHang, fault.DefaultSeverity(fault.KindHang))
	for _, bt := range k.threads {
		if bt.state == ThreadBlocked && bt.blockedIn == blamed {
			bt.pendingFault = &Fault{Comp: blamed, Epoch: epoch,
				Kind: fault.KindHang, Severity: fault.DefaultSeverity(fault.KindHang)}
			bt.state = ThreadRunnable
			k.enqueue(bt)
		}
	}
	return true
}

// takeWatchdogFault consumes (and clears) the watchdog fault armed on the
// thread by a caught hang, if any: armed by the hanging thread itself
// (HangCurrent) and consumed by it in Invoke.
func (t *Thread) takeWatchdogFault() *Fault {
	f := t.watchdogFault
	t.watchdogFault = nil
	return f
}
