package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/services/lock"
	"superglue/internal/services/ramfs"
	"superglue/internal/storage"
	"superglue/internal/swifi"
)

// The traced run is a mode of its own, so the end-to-end metrics never pay
// for it. It builds its own rigs from each module's public API, times
// calls into them from the outside, and reports one per-layer metric per
// row of the ledger below, each with its unit and sample count.

// layerMetric is one ledger row.
type layerMetric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// ledgerBook collects the ledger's rows in order.
type ledgerBook struct {
	rows []layerMetric
	ops  int // operations the rigs ran, for the result's attempted count
}

func (b *ledgerBook) add(name string, value float64, unit string, n int) {
	b.rows = append(b.rows, layerMetric{name, value, unit, n})
}

func (b *ledgerBook) get(name string) float64 {
	for _, r := range b.rows {
		if r.name == name {
			return r.value
		}
	}
	return 0
}

// Sample counts of the ledger's timing loops.
const (
	loopIters   = 20000 // tight loops: calls per timing
	loopRepeats = 5     // timings per tight loop; the median is reported
	faultProbes = 100   // fault/recovery samples per rig
)

// perCall times fn over iters calls, loopRepeats times, and returns the
// median nanoseconds per call.
func perCall(iters int, fn func(i int) error) (float64, error) {
	var xs []float64
	for r := 0; r < loopRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return median(xs), nil
}

// onThread runs body on one simulated thread of k and returns its error.
func onThread(k *kernel.Kernel, body func(t *kernel.Thread) error) error {
	var runErr error
	if _, err := k.CreateThread(nil, "ledger", 10, func(t *kernel.Thread) { runErr = body(t) }); err != nil {
		return err
	}
	if err := k.Run(); err != nil {
		return err
	}
	return runErr
}

// ledger runs the traced run for the named workload's seed and returns the
// per-layer metrics. The rigs are the same for every workload; the seed
// picks the site and the campaign seed.
func ledger(name string, seed int64, sz sizes, spansOut string, log io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	files := siteFor(seed)
	b := &ledgerBook{}
	steps := []struct {
		what string
		fn   func() error
	}{
		{"web-steady end-to-end", func() error { return ledgerEndToEnd(b, files, sz) }},
		{"request replay", func() error { return ledgerReplay(b, files, sz, spansOut) }},
		{"request-path layers", func() error { return ledgerPath(b, files) }},
		{"thread switch", func() error { return ledgerSwitch(b) }},
		{"reboot", func() error { return ledgerReboot(b) }},
		{"recovery", func() error { return ledgerRecovery(b) }},
		{"storage", func() error { return ledgerStorage(b, files) }},
		{"obs", func() error { return ledgerObs(b) }},
		{"campaigns", func() error { return ledgerCampaigns(b, seed, sz) }},
	}
	for _, s := range steps {
		runtime.GC()
		if err := s.fn(); err != nil {
			res.Attempted = b.ops
			return res, fmt.Errorf("traced run, %s: %w", s.what, err)
		}
	}
	ledgerShares(b)

	fmt.Fprintf(log, "per-layer ledger (traced run, %s, seed %d)\n", name, seed)
	for _, r := range b.rows {
		fmt.Fprintf(log, "  %-34s %14.6g %-6s n=%d\n", r.name, r.value, r.unit, r.n)
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	fmt.Fprintf(log, "request split (share of one web-steady request of %.0f ns) next to the profile split:\n", 1e9/b.get("trace.e2e_ops_s"))
	fmt.Fprintf(log, "  stub calls %.1f%%, of which stub self %.1f%% (profile: ClientStub.call ~48%%)\n",
		b.get("ledger.stub_calls_share_pct"), b.get("ledger.stub_self_share_pct"))
	fmt.Fprintf(log, "  parse %.1f%% (profile ~21%%)\n", b.get("ledger.parse_share_pct"))
	fmt.Fprintf(log, "  switch and event residual %.1f%% (profile: switchFromLocked ~20%%)\n", b.get("ledger.switch_share_pct"))
	fmt.Fprintf(log, "tracing overhead: replay %.0f req/s traced, %.0f req/s untraced: %.1f%%\n",
		b.get("trace.replay_ops_s"), b.get("trace.replay_untraced_ops_s"), b.get("trace.overhead_pct"))
	res.Attempted = b.ops
	res.Correct = true
	return res, nil
}

// ledgerEndToEnd runs a few untraced web-steady repetitions: the request
// time the ledger's shares divide by, and the server's allocations per
// request.
func ledgerEndToEnd(b *ledgerBook, files map[string][]byte, sz sizes) error {
	cfg := webConfig("web-steady", files, sz.steadyRequests)
	var ops, allocs []float64
	for i := 0; i < 4; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := webRep("web-steady", cfg)
		runtime.ReadMemStats(&after)
		b.ops += out.ops
		if err != nil {
			return err
		}
		if i == 0 {
			continue // warm-up
		}
		ops = append(ops, out.metrics["ops_s"])
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(cfg.Requests))
	}
	b.add("trace.e2e_ops_s", median(ops), "1/s", len(ops))
	b.add("webserver.allocs_per_req", median(allocs), "count", len(allocs))
	return nil
}

// ledgerReplay replays the web request path on one thread, first untraced
// and then with a span around every call, and derives the parse and
// respond self times, the kernel invocations per request, and the tracing
// overhead. The spans are written to spansOut.
func ledgerReplay(b *ledgerBook, files map[string][]byte, sz sizes, spansOut string) error {
	r, err := newWebRig(files, 1)
	if err != nil {
		return err
	}
	n := sz.replayRequests
	sp := newSpans(n * numSpanNames)
	var untraced, traced time.Duration
	var invokes uint64
	err = r.run(func(t *kernel.Thread) error {
		k := r.sys.Kernel()
		for i := range r.reqs { // warm-up: one pass over the site
			if err := r.serve(t, i, nil); err != nil {
				return err
			}
		}
		inv0 := k.InvocationCount()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := r.serve(t, i, nil); err != nil {
				return err
			}
		}
		untraced = time.Since(t0)
		invokes = k.InvocationCount() - inv0
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if err := r.serve(t, i, sp); err != nil {
				return err
			}
		}
		traced = time.Since(t0)
		return nil
	})
	b.ops += 2 * n
	if err != nil {
		return err
	}
	self := sp.selfTimes()
	b.add("webserver.parse_ns", median(self[spanParse]), "ns", len(self[spanParse]))
	b.add("webserver.respond_ns", median(self[spanRespond]), "ns", len(self[spanRespond]))
	b.add("kernel.invocations_per_req", float64(invokes)/float64(n), "count", n)
	untracedOps := float64(n) / untraced.Seconds()
	tracedOps := float64(n) / traced.Seconds()
	b.add("trace.replay_untraced_ops_s", untracedOps, "1/s", n)
	b.add("trace.replay_ops_s", tracedOps, "1/s", n)
	b.add("trace.overhead_pct", 100*(1-tracedOps/untracedOps), "%", n)
	return sp.write(spansOut)
}

// inner unwraps the SuperGlue server-side stub a registered server runs
// behind, exposing the service body.
func inner(k *kernel.Kernel, comp kernel.ComponentID) (kernel.Service, error) {
	svc, err := k.Service(comp)
	if err != nil {
		return nil, err
	}
	w, ok := svc.(interface{ Inner() kernel.Service })
	if !ok {
		return nil, fmt.Errorf("component %d has no server stub", comp)
	}
	return w.Inner(), nil
}

// ledgerPath times the web request's four calls (lock take, ramfs lseek,
// ramfs read, lock release) three ways: through the typed SuperGlue
// clients, as raw kernel invocations, and as direct Dispatch calls on the
// service bodies. Each figure is per call, averaged over the four.
func ledgerPath(b *ledgerBook, files map[string][]byte) error {
	r, err := newWebRig(files, 1)
	if err != nil {
		return err
	}
	return r.run(func(t *kernel.Thread) error {
		k := r.sys.Kernel()
		self := kernel.Word(r.lock.Stub().Client().ID())
		fd := r.fds[r.paths[0]]
		size := len(r.files[r.paths[0]])
		tid := kernel.Word(t.ID())

		// Raw invocations bypass the client stub, so they use a lock and a
		// read buffer of their own.
		rawLock, err := k.Invoke(t, r.lockComp, lock.FnAlloc, self)
		if err != nil {
			return err
		}
		cm := r.sys.Cbufs()
		buf, err := cm.Alloc(cbuf.ComponentID(self), size)
		if err != nil {
			return err
		}
		if err := cm.Delegate(buf, cbuf.ComponentID(self), cbuf.ComponentID(r.fsID)); err != nil {
			return err
		}
		lockSvc, err := inner(k, r.lockComp)
		if err != nil {
			return err
		}
		fsSvc, err := inner(k, r.fsID)
		if err != nil {
			return err
		}

		call, err := perCall(loopIters, func(int) error {
			if err := r.lock.Take(t, r.lockID); err != nil {
				return err
			}
			if _, err := r.fs.Lseek(t, fd, 0); err != nil {
				return err
			}
			if _, err := r.fs.Read(t, fd, size); err != nil {
				return err
			}
			return r.lock.Release(t, r.lockID)
		})
		if err != nil {
			return fmt.Errorf("typed calls: %w", err)
		}
		invoke, err := perCall(loopIters, func(int) error {
			if _, err := k.Invoke(t, r.lockComp, lock.FnTake, self, rawLock, tid); err != nil {
				return err
			}
			if _, err := k.Invoke(t, r.fsID, ramfs.FnLseek, fd, 0); err != nil {
				return err
			}
			if _, err := k.Invoke(t, r.fsID, ramfs.FnRead, self, fd, kernel.Word(buf), kernel.Word(size)); err != nil {
				return err
			}
			_, err := k.Invoke(t, r.lockComp, lock.FnRelease, self, rawLock, tid)
			return err
		})
		if err != nil {
			return fmt.Errorf("raw invocations: %w", err)
		}
		args := make([]kernel.Word, 4)
		dispatch, err := perCall(loopIters, func(int) error {
			args = append(args[:0], self, rawLock, tid)
			if _, err := lockSvc.Dispatch(t, lock.FnTake, args); err != nil {
				return err
			}
			args = append(args[:0], fd, 0)
			if _, err := fsSvc.Dispatch(t, ramfs.FnLseek, args); err != nil {
				return err
			}
			args = append(args[:0], self, fd, kernel.Word(buf), kernel.Word(size))
			if _, err := fsSvc.Dispatch(t, ramfs.FnRead, args); err != nil {
				return err
			}
			args = append(args[:0], self, rawLock, tid)
			_, err := lockSvc.Dispatch(t, lock.FnRelease, args)
			return err
		})
		if err != nil {
			return fmt.Errorf("dispatch: %w", err)
		}
		n := loopIters * loopRepeats * 4
		b.ops += 3 * n
		b.add("core.call_ns", call/4, "ns", n)
		b.add("core.stub_self_ns", (call-invoke)/4, "ns", n)
		b.add("kernel.invoke_ns", invoke/4, "ns", n)
		b.add("services.dispatch_ns", dispatch/4, "ns", n)
		return nil
	})
}

// ledgerSwitch times a Block/Wakeup handoff between two simulated threads
// ping-ponging on one core.
func ledgerSwitch(b *ledgerBook) error {
	k := kernel.New()
	const n = loopIters * loopRepeats
	var pong kernel.ThreadID
	done := false
	var elapsed time.Duration
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	ping, err := k.CreateThread(nil, "ping", 10, func(t *kernel.Thread) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := k.Wakeup(t, pong); err != nil {
				fail(err)
				return
			}
			if err := k.Block(t); err != nil {
				fail(err)
				return
			}
		}
		elapsed = time.Since(t0)
		done = true
		fail(k.Wakeup(t, pong))
	})
	if err != nil {
		return err
	}
	if pong, err = k.CreateThread(nil, "pong", 10, func(t *kernel.Thread) {
		for {
			if err := k.Block(t); err != nil {
				fail(err)
				return
			}
			if done {
				return
			}
			if err := k.Wakeup(t, ping); err != nil {
				fail(err)
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := k.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	b.ops += n
	b.add("kernel.switch_ns", float64(elapsed.Nanoseconds())/float64(2*n), "ns", 2*n)
	return nil
}

// ledgerReboot times Kernel.Reboot of a failed lock server.
func ledgerReboot(b *ledgerBook) error {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		return err
	}
	comp, err := lock.Register(sys)
	if err != nil {
		return err
	}
	k := sys.Kernel()
	var xs []float64
	if err := onThread(k, func(t *kernel.Thread) error {
		for i := 0; i < faultProbes; i++ {
			if err := k.FailComponent(comp); err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := k.Reboot(t, comp); err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds()))
		}
		return nil
	}); err != nil {
		return err
	}
	b.ops += len(xs)
	b.add("kernel.reboot_ns", median(xs), "ns", len(xs))
	return nil
}

// ledgerRecovery measures, per service, the first call after FailComponent
// minus the same call fault-free, and the recovery-walk steps per
// recovery.
func ledgerRecovery(b *ledgerBook) error {
	var steps uint64
	recoveries := 0
	for _, svc := range swifi.Targets() {
		rig, err := newServiceRig(svc)
		if err != nil {
			return fmt.Errorf("%s: %w", svc, err)
		}
		var base, post []float64
		k := rig.sys.Kernel()
		var walk uint64
		if err := onThread(k, func(t *kernel.Thread) error {
			if err := rig.prep(t); err != nil {
				return err
			}
			for i := 0; i < 64; i++ {
				t0 := time.Now()
				if err := rig.probe(t); err != nil {
					return err
				}
				base = append(base, float64(time.Since(t0).Nanoseconds()))
			}
			w0 := rig.walkSteps()
			for i := 0; i < faultProbes; i++ {
				if err := k.FailComponent(rig.comp); err != nil {
					return err
				}
				t0 := time.Now()
				if err := rig.probe(t); err != nil {
					return err
				}
				post = append(post, float64(time.Since(t0).Nanoseconds()))
			}
			walk = rig.walkSteps() - w0
			return nil
		}); err != nil {
			return fmt.Errorf("%s: %w", svc, err)
		}
		b.ops += len(base) + len(post)
		steps += walk
		recoveries += len(post)
		b.add("core.recover_ns."+svc, median(post)-median(base), "ns", len(post))
	}
	b.add("core.walk_steps_per_recovery", float64(steps)/float64(recoveries), "count", recoveries)
	return nil
}

// ledgerStorage times the quorum store under the web site's descriptors and
// data: Resolve at one and three replicas, quorum ReadAll, the rebuild a
// crashed replica costs on the next operation, a three-replica SaveSlice,
// and the replica rebuilds one correlated burst causes.
func ledgerStorage(b *ledgerBook, files map[string][]byte) error {
	for _, replicas := range []int{1, 3} {
		r, err := newWebRig(files, replicas)
		if err != nil {
			return err
		}
		if err := r.run(func(t *kernel.Thread) error {
			st := r.sys.Store()
			class, ok := r.sys.Class(r.fsID)
			if !ok {
				return fmt.Errorf("ramfs has no storage class")
			}
			fds := make([]kernel.Word, len(r.paths))
			for i, p := range r.paths {
				fds[i] = r.fds[p]
			}
			resolve, _ := perCall(loopIters, func(i int) error {
				st.Resolve(class, fds[i%len(fds)])
				return nil
			})
			b.ops += loopIters * loopRepeats
			b.add(fmt.Sprintf("storage.resolve_ns.r%d", replicas), resolve, "ns", loopIters*loopRepeats)
			if replicas == 1 {
				return nil
			}
			read, err := perCall(len(r.paths), func(i int) error {
				data, err := st.ReadAll(class, ramfs.PathID(r.paths[i]))
				if err == nil && len(data) != len(r.files[r.paths[i]]) {
					err = fmt.Errorf("quorum read of %s returned %d bytes, want %d", r.paths[i], len(data), len(r.files[r.paths[i]]))
				}
				return err
			})
			if err != nil {
				return err
			}
			b.add("storage.read_ns", read, "ns", len(r.paths)*loopRepeats)
			var rebuild []float64
			for i := 0; i < faultProbes; i++ {
				st.CrashReplica(i % replicas)
				t0 := time.Now()
				st.Resolve(class, fds[i%len(fds)])
				rebuild = append(rebuild, float64(time.Since(t0).Nanoseconds()))
			}
			b.ops += len(r.paths)*loopRepeats + len(rebuild)
			b.add("storage.rebuild_ns", median(rebuild), "ns", len(rebuild))
			return nil
		}); err != nil {
			return fmt.Errorf("%d replicas: %w", replicas, err)
		}
	}
	if err := ledgerBursts(b, files); err != nil {
		return err
	}

	cm := cbuf.NewManager(0)
	st := storage.NewReplicated(cm, 3)
	st.Attach(kernel.ComponentID(42))
	data := []byte("quorum-write-payload")
	const owner = 9
	buf, err := cm.Alloc(owner, len(data))
	if err != nil {
		return err
	}
	if err := cm.Write(buf, owner, 0, data); err != nil {
		return err
	}
	save, err := perCall(loopIters/10, func(i int) error {
		// 64 rotating resources keep the store's state bounded while
		// the WAL/checkpoint cycle runs at its default cadence.
		return st.SaveSlice(1, kernel.Word(i%64), 0, buf, 0, len(data))
	})
	if err != nil {
		return err
	}
	b.ops += loopIters / 10 * loopRepeats
	b.add("storage.save_ns", save, "ns", loopIters/10*loopRepeats)
	return nil
}

// ledgerBursts replays web-faults' bursts on the three-replica rig: every
// burstEvery requests a rotating service (lock, ramfs) fails together with
// a rotating storage replica, and the replay continues through recovery.
// A trace recorder counts the replica rebuilds per burst and the WAL
// records each rebuild replays. (Quorum repairs are not counted: they need
// a diverged minority, and a burst only crashes a replica, so the count is
// zero by construction.)
func ledgerBursts(b *ledgerBook, files map[string][]byte) error {
	r, err := newWebRig(files, 3)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(0)
	r.sys.SetTracer(rec)
	const bursts = 40
	var rebuilds0 uint64
	if err := r.run(func(t *kernel.Thread) error {
		k := r.sys.Kernel()
		st := r.sys.Store()
		targets := []kernel.ComponentID{r.lockComp, r.fsID}
		rebuilds0 = rebuildStat(rec).Count
		for i := 0; i < bursts*burstEvery; i++ {
			if i%burstEvery == 0 {
				burst := i / burstEvery
				if err := k.FailComponent(targets[burst%len(targets)]); err != nil {
					return err
				}
				st.CrashReplica(burst % st.Replicas())
			}
			if err := r.serve(t, i, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	stat := rebuildStat(rec)
	if stat.Count == rebuilds0 {
		return fmt.Errorf("%d bursts rebuilt no replica", bursts)
	}
	b.ops += bursts * burstEvery
	b.add("storage.rebuilds_per_burst", float64(stat.Count-rebuilds0)/bursts, "count", bursts)
	b.add("storage.wal_records_per_rebuild", float64(stat.TotalVT)/float64(stat.Count), "count", int(stat.Count))
	return nil
}

// rebuildStat returns the recorder's replica-rebuild cell, whose magnitude
// is the WAL records replayed.
func rebuildStat(rec *obs.Recorder) obs.MechStat {
	s := rec.Snapshot()
	if s.Storage == nil || s.Storage.RebuildLatency == nil {
		return obs.MechStat{}
	}
	return *s.Storage.RebuildLatency
}

// ledgerObs times the trace recorder's operations.
func ledgerObs(b *ledgerBook) error {
	const n = 50
	var before, after runtime.MemStats
	keep := make([]*obs.Recorder, 0, n)
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		keep = append(keep, obs.NewRecorder(obs.DefaultCapacity))
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	b.add("obs.new_recorder_ns", float64(elapsed.Nanoseconds())/n, "ns", n)
	b.add("obs.new_recorder_b", float64(after.TotalAlloc-before.TotalAlloc)/n, "B", n)

	rec, other := keep[0], keep[1]
	record, _ := perCall(loopIters*5, func(i int) error {
		rec.RecordInvoke(int32(1+i%6), 1, "fn", int64(i), 1)
		return nil
	})
	b.add("obs.record_ns", record, "ns", loopIters*5*loopRepeats)
	for i := 0; i < obs.DefaultCapacity; i++ {
		other.RecordInvoke(int32(1+i%6), 2, "fn", int64(i), 1)
	}
	snapshot, _ := perCall(n, func(int) error {
		rec.Snapshot()
		return nil
	})
	b.add("obs.snapshot_ns", snapshot, "ns", n*loopRepeats)
	o := other.Snapshot()
	var merges []float64
	for i := 0; i < n; i++ {
		s := rec.Snapshot()
		t0 := time.Now()
		s.Merge(o)
		merges = append(merges, float64(time.Since(t0).Nanoseconds()))
	}
	b.add("obs.merge_ns", median(merges), "ns", n)
	b.ops += n*(2+loopRepeats) + loopIters*5*loopRepeats
	return nil
}

// ledgerCampaigns times swifi-traced's campaigns: the dry runs, each
// traced campaign, the same campaigns untraced, and the traced campaigns
// on two workers at GOMAXPROCS 2. Table II must come out identical in all
// three.
func ledgerCampaigns(b *ledgerBook, seed int64, sz sizes) error {
	traced := campaignConfigs(seed, sz.trials, true, 1)
	var dry []float64
	for _, cfg := range traced {
		t0 := time.Now()
		if _, err := swifi.Opportunities(cfg); err != nil {
			return err
		}
		dry = append(dry, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	b.add("swifi.dryrun_ms", median(dry), "ms", len(dry))

	w1, err := runCampaigns(traced)
	if err != nil {
		return err
	}
	untraced, err := runCampaigns(campaignConfigs(seed, sz.trials, false, 1))
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(2)
	w2, err := runCampaigns(campaignConfigs(seed, sz.trials, true, 2))
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	trials := sz.trials * len(traced)
	b.ops += 3 * trials
	var events uint64
	for i, res := range w1.results {
		if rowOf(res) != rowOf(w2.results[i]) {
			return fmt.Errorf("%s: Table II %v with 1 worker, %v with 2", res.Service, rowOf(res), rowOf(w2.results[i]))
		}
		if rowOf(res) != rowOf(untraced.results[i]) {
			return fmt.Errorf("%s: Table II %v traced, %v untraced", res.Service, rowOf(res), rowOf(untraced.results[i]))
		}
		if res.Recovery == nil {
			return fmt.Errorf("%s: traced campaign returned no trace snapshot", res.Service)
		}
		events += res.Recovery.TotalEvents
		b.add("swifi.campaign_s."+res.Service, w1.walls[i].Seconds(), "s", res.Injected)
	}
	b.add("obs.events_per_trial", float64(events)/float64(trials), "count", trials)
	opsOf := func(cr *campaignRun) float64 {
		var wall time.Duration
		for _, w := range cr.walls {
			wall += w
		}
		return float64(trials) / wall.Seconds()
	}
	b.add("swifi.traced_ops_s", opsOf(w1), "1/s", trials)
	b.add("swifi.untraced_ops_s", opsOf(untraced), "1/s", trials)
	b.add("pool.speedup_2w", opsOf(w2)/opsOf(w1), "ratio", trials)
	return nil
}

// ledgerShares splits one end-to-end web-steady request the way the
// profile in ROADMAP item 1 does: the request's four stub calls (cumulative,
// and the stub's self time within them), request parsing, and the residual
// the replay does not run — the event wait and trigger and the thread
// switches of the real server.
func ledgerShares(b *ledgerBook) {
	req := 1e9 / b.get("trace.e2e_ops_s")
	replay := 1e9 / b.get("trace.replay_untraced_ops_s")
	b.add("ledger.stub_calls_share_pct", 100*4*b.get("core.call_ns")/req, "%", 1)
	b.add("ledger.stub_self_share_pct", 100*4*b.get("core.stub_self_ns")/req, "%", 1)
	b.add("ledger.parse_share_pct", 100*b.get("webserver.parse_ns")/req, "%", 1)
	b.add("ledger.switch_share_pct", 100*(req-replay)/req, "%", 1)
}
