package webserver

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

// Config parameterizes one web-server benchmark run.
type Config struct {
	// Variant selects the stub configuration.
	Variant Variant
	// Workers is the number of worker threads serving requests.
	Workers int
	// Requests is the total request count (the paper's ab run uses 50000).
	Requests int
	// Files is the site's content, preloaded into the RAM filesystem.
	Files map[string][]byte
	// FaultEvery, when positive, fails one system component (rotating over
	// the five services) every FaultEvery completed requests — the Fig. 7
	// "crash injected every 10 seconds" variant. Requires a recovery
	// variant (C3 or SuperGlue).
	FaultEvery int
	// CorrelatedEvery, when positive, injects a correlated burst every
	// CorrelatedEvery completed requests: a rotating backing service and
	// the storage component fail together, so recovery of the service
	// runs against a freshly crashed dependency (the common-cause case
	// shaped SWIFI campaigns stress). Requires the SuperGlue variant.
	CorrelatedEvery int
	// HangEvery, when positive, hangs a thread inside one backing service
	// (rotating over lock, event, fs, timer) every HangEvery completed
	// requests: the latent-fault variant of the crasher. Requires Watchdog
	// and the SuperGlue variant — without the watchdog a single hang
	// wedges the machine.
	HangEvery int
	// Watchdog enables the kernel watchdog, turning hangs in backing
	// services into recoverable component faults mid-request.
	Watchdog bool
	// Mode is the recovery mode for the SuperGlue variant.
	Mode core.RecoveryMode
	// BucketSize is the completions-per-timeline-bucket granularity.
	BucketSize int
	// Cores is the simulated core count (0 or 1 = the legacy single-core
	// machine). With more cores the backing services are placed round-robin
	// on cores 1..Cores-1 and the worker threads are spread over every
	// core, so requests exercise cross-core synchronous invocations.
	// Execution stays globally serialized (the simulator models one running
	// thread), so extra cores add migration modeling, not wall-clock
	// parallelism.
	Cores int
	// Replicas is the storage replication factor (0 or 1 = the legacy
	// single-copy store). With more replicas the correlated bursts fail a
	// storage replica inside the store instead of the storage component,
	// so recovery runs under quorum (see docs/STORAGE.md).
	Replicas int
}

// Stats reports one run's outcome.
type Stats struct {
	Variant   Variant
	Completed int
	Errors    int
	Faults    int
	// CorrelatedBursts counts injected service+storage double faults
	// (CorrelatedEvery).
	CorrelatedBursts int
	// Hangs counts injected latent faults (HangEvery).
	Hangs int
	// Degraded counts requests answered 503-style because a backing
	// service exhausted its recovery budget (core.ErrDegraded); every
	// degraded request is also counted in Errors.
	Degraded   int
	Elapsed    time.Duration
	Throughput float64 // requests per wall-clock second
	// Cores is the simulated core count the run used.
	Cores int
	// VirtualTicks is the final virtual clock of the run's machine: the
	// dispatch quanta, sleeps, and migration charges the request stream
	// consumed (0 for the baseline variant, which has no machine).
	VirtualTicks kernel.Time
	// Migrations counts cross-core thread migrations over every core
	// (0 on a single-core machine).
	Migrations uint64
	// Dispatches counts simulated thread dispatches over every core. On a
	// single core a request costs about two (the worker, then netif), plus
	// what setup, recovery and each injected fault add.
	Dispatches uint64
	// Timeline records the elapsed wall time at each completion bucket,
	// showing recovery dips.
	Timeline []BucketPoint
}

// BucketPoint is one timeline sample.
type BucketPoint struct {
	Completed int
	Elapsed   time.Duration
}

// An injector is one fault-injection thread (crasher, burster, hangler)
// and the completion count at which it fires next.
type injector struct {
	tid  kernel.ThreadID
	next int
	// held, when set, reports that the injector cannot fire whatever the
	// count: the hangler's previous hang is still armed.
	held func() bool
}

// due reports whether the injector should fire after completed requests.
func (in *injector) due(completed int) bool {
	return completed >= in.next && (in.held == nil || !in.held())
}

// DefaultFiles builds a small deterministic site.
func DefaultFiles() map[string][]byte {
	files := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/f%d.html", i)
		body := bytes.Repeat([]byte(fmt.Sprintf("<p>page %d</p>", i)), 4*(i+1))
		files[name] = body
	}
	files["/index.html"] = []byte("<html><body>superglue-ws</body></html>")
	return files
}

// Run executes one benchmark run and returns its stats.
func Run(cfg Config) (*Stats, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.Variant == VariantBaseline {
		return runBaseline(cfg)
	}
	return runMachine(cfg, nil)
}

// validate fills in cfg's defaults and rejects the configurations Run and
// Serve cannot run: an unknown variant or recovery mode, and the injector
// combinations a variant cannot survive.
func validate(cfg *Config) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if cfg.Files == nil {
		cfg.Files = DefaultFiles()
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.OnDemand
	}
	if cfg.BucketSize <= 0 {
		cfg.BucketSize = cfg.Requests / 20
		if cfg.BucketSize == 0 {
			cfg.BucketSize = 1
		}
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if _, ok := kinds[cfg.Variant]; !ok && cfg.Variant != VariantBaseline {
		return fmt.Errorf("webserver: unknown variant %v", cfg.Variant)
	}
	if cfg.Mode != core.OnDemand && cfg.Mode != core.Eager {
		return fmt.Errorf("webserver: unknown recovery mode %d", int(cfg.Mode))
	}
	if cfg.FaultEvery > 0 && cfg.Variant != VariantC3 && cfg.Variant != VariantSuperGlue {
		return errors.New("webserver: fault injection requires a recovery variant")
	}
	if cfg.HangEvery > 0 && (!cfg.Watchdog || cfg.Variant != VariantSuperGlue) {
		return errors.New("webserver: hang injection requires the watchdog and the SuperGlue variant")
	}
	if cfg.CorrelatedEvery > 0 && cfg.Variant != VariantSuperGlue {
		return errors.New("webserver: correlated bursts require the SuperGlue variant")
	}
	return nil
}

// paths returns the site's paths, sorted for determinism.
func paths(files map[string][]byte) []string {
	out := make([]string, 0, len(files))
	for p := range files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// runMachine builds the componentized server for a validated cfg and runs
// it to the end.
//
// Netif takes its requests from one of two sources. With live nil it is
// Run's pre-rendered stream of cfg.Requests requests, and a worker's
// rendered response only feeds the status check. Otherwise it is the
// socket bridge's queue: netif delivers each request into the bridge and
// parks while the queue is empty, a worker also sends a copy of each
// response back on the request's reply channel, and the run ends once the
// bridge stops.
func runMachine(cfg Config, live *bridge) (*Stats, error) {
	sys, err := core.NewSystemWithStorage(cfg.Mode, cfg.Cores, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	svc, ids, err := buildSubstrate(sys, cfg.Variant)
	if err != nil {
		return nil, err
	}
	if cfg.Cores > 1 {
		// Spread the backing services over cores 1..cores-1, keeping core 0
		// for the application threads: every request now crosses cores.
		comps := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer, ids.sched}
		for i, comp := range comps {
			if err := sys.PlaceServer(comp, 1+i%(cfg.Cores-1)); err != nil {
				return nil, err
			}
		}
	}
	k := sys.Kernel()
	if cfg.Watchdog {
		k.EnableWatchdog(kernel.WatchdogConfig{})
	}
	stats := &Stats{Variant: cfg.Variant}
	site := paths(cfg.Files)

	// Run's pre-rendered request stream ("network input").
	var reqs [][]byte
	if live == nil {
		reqs = make([][]byte, cfg.Requests)
		for i := range reqs {
			reqs[i] = FormatRequest(site[i%len(site)], true)
		}
	}
	next := 0 // next request index to hand out

	var (
		start      time.Time
		cacheLock  kernel.Word
		fdCache    = make(map[string]kernel.Word)
		workerEvts = make([]kernel.Word, cfg.Workers)
		runErrs    []error
		done       = false
		injectors  []*injector
	)
	// wakeInjectors lets every injector see done or a run error and exit.
	// Wakeup fails only on a halted machine, where no thread runs again.
	wakeInjectors := func() {
		for _, in := range injectors {
			_ = k.Wakeup(nil, in.tid)
		}
	}
	fail := func(err error) {
		runErrs = append(runErrs, err)
		wakeInjectors()
	}

	// serve handles one request through the full component path, rendering
	// the response into the calling worker's buffer resp; it returns the
	// buffer, grown if the response needed more room.
	serve := func(t *kernel.Thread, raw, resp []byte) []byte {
		req, err := ParseRequest(raw)
		if err != nil {
			stats.Errors++
			return AppendResponse(resp[:0], 400, []byte(err.Error()))
		}
		body, found, err := readFile(t, svc, cacheLock, fdCache, req.Path)
		if err != nil {
			stats.Errors++
			if errors.Is(err, core.ErrDegraded) {
				// Graceful degradation: the backing service exhausted its
				// recovery budget, so this request gets a 503 — but the
				// server (and the machine) keep going.
				stats.Degraded++
				return AppendResponse(resp[:0], 503, degradedBody)
			}
			fail(fmt.Errorf("serve %s: %w", req.Path, err))
			return AppendResponse(resp[:0], 500, []byte(err.Error()))
		}
		if !found {
			resp = AppendResponse(resp[:0], 404, notFoundBody)
		} else {
			resp = AppendResponse(resp[:0], 200, body)
		}
		if code, err := ParseResponseStatus(resp); err != nil || (code != 200 && code != 404) {
			stats.Errors++
			return resp
		}
		stats.Completed++
		if stats.Completed%cfg.BucketSize == 0 {
			stats.Timeline = append(stats.Timeline, BucketPoint{Completed: stats.Completed, Elapsed: time.Since(start)})
		}
		for _, in := range injectors {
			if in.due(stats.Completed) {
				_ = k.Wakeup(t, in.tid)
			}
		}
		return resp
	}

	// Workers: wait on their event, take the next request, serve. They are
	// created by the loader once the events exist — on a multi-core machine
	// a worker created at build time could be dispatched on its own core
	// before the loader finished the setup.
	workersDone := 0
	createWorkers := func(creator *kernel.Thread) {
		for w := 0; w < cfg.Workers; w++ {
			w := w
			if _, err := k.CreateThreadOn(creator, fmt.Sprintf("worker%d", w), 10, w%cfg.Cores, func(t *kernel.Thread) {
				defer func() { workersDone++ }()
				if _, err := svc.sched.Setup(t, t.Prio()); err != nil {
					fail(fmt.Errorf("worker%d setup: %w", w, err))
					return
				}
				var resp []byte // this worker's response buffer, reused
				for {
					if _, err := svc.evt.Wait(t, workerEvts[w]); err != nil {
						fail(fmt.Errorf("worker%d wait: %w", w, err))
						return
					}
					var raw []byte
					var in *inflight
					if live == nil {
						if next >= len(reqs) {
							return
						}
						raw = reqs[next]
						next++
					} else if in = live.pop(); in != nil {
						raw = in.raw
					} else if live.ended {
						return
					} else {
						continue // a live request another worker took
					}
					resp = serve(t, raw, resp)
					if in != nil {
						in.resp <- bytes.Clone(resp)
					}
				}
			}); err != nil {
				fail(fmt.Errorf("worker%d create: %w", w, err))
				return
			}
		}
	}

	// pump is netif's loop over a live source: it triggers a worker per
	// arrival, round-robin, until the bridge stops, and reports false when
	// netif must exit at once.
	var pump func(t *kernel.Thread) bool
	if live != nil {
		pump = func(t *kernel.Thread) bool {
			live.netif = t.ID()
			for i := 0; ; {
				arrived, queued, stopped := live.counts()
				switch {
				case i < arrived:
					i++
				case queued > 0:
					// Every arrival has its trigger, yet a request waits.
					// The sleep ends only once no core has a runnable
					// thread; a request still waiting then lost its trigger
					// to a µ-reboot of evt, so trigger again.
					if k.Sleep(t, 1) != nil {
						return false
					}
					if _, queued, _ = live.counts(); queued == 0 {
						continue
					}
				case stopped:
					live.ended = true
					return true
				default:
					// Park until the idle handler sees an arrival or the stop.
					live.parked = true
					err := k.Block(t)
					live.parked = false
					if live.idleKeeper != 0 {
						_ = k.Wakeup(t, live.idleKeeper)
						live.idleKeeper = 0
					}
					if err != nil {
						return false
					}
					continue
				}
				if _, err := svc.evt.Trigger(t, workerEvts[i%cfg.Workers]); err != nil {
					fail(fmt.Errorf("netif trigger: %w", err))
					return false
				}
			}
		}
	}

	// hangAt is the armed hang target (zero = disarmed); the invoke hook
	// installed below (HangEvery) fires it.
	var (
		hangAt  kernel.ComponentID
		hangler *injector
	)

	// launchInjector creates a fault-injection thread that calls fire each
	// time every more requests have completed and held (if set) is false.
	// The thread does not poll: it blocks outside any component, serve
	// wakes it when its count comes up, and netif's shutdown or a run
	// error wakes it to exit. It runs at worker priority, so a wakeup from
	// the worker that completed the request does not preempt that worker;
	// once the worker blocks in its next evt_wait the injector runs before
	// netif (priority 11) triggers the next request. A burst on evt thus
	// still finds the workers blocked inside the failed component.
	launchInjector := func(creator *kernel.Thread, name string, every int, held func() bool, fire func() error) *injector {
		in := &injector{next: every, held: held}
		tid, err := k.CreateThread(creator, name, 10, func(t *kernel.Thread) {
			for k.Block(t) == nil && !done && len(runErrs) == 0 {
				if !in.due(stats.Completed) {
					continue
				}
				if err := fire(); err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
				in.next += every
			}
		})
		if err != nil {
			fail(fmt.Errorf("%s create: %w", name, err))
			return in
		}
		in.tid = tid
		injectors = append(injectors, in)
		return in
	}

	// launchAux creates the netif, housekeeper, and fault-injection threads.
	// Like the workers, they start only after the loader finished the setup:
	// on a multi-core machine a build-time thread could be dispatched while
	// the loader is parked on a cross-core invocation, and would then trip
	// over half-initialized events.
	launchAux := func(creator *kernel.Thread) {
		// Netif: trigger one worker event per request arrival, round-robin;
		// then keep nudging the worker events until every worker has observed
		// the end of the stream (a µ-reboot can wipe an undelivered pending
		// trigger, so the shutdown must re-trigger rather than fire-and-forget).
		if _, err := k.CreateThread(creator, "netif", 11, func(t *kernel.Thread) {
			if live != nil {
				if !pump(t) {
					return
				}
			} else {
				for i := 0; i < cfg.Requests; i++ {
					if _, err := svc.evt.Trigger(t, workerEvts[i%cfg.Workers]); err != nil {
						fail(fmt.Errorf("netif trigger: %w", err))
						return
					}
					if i%64 == 63 {
						if err := k.Yield(t); err != nil {
							return
						}
					}
				}
			}
			for workersDone < cfg.Workers {
				for w := 0; w < cfg.Workers; w++ {
					if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
						fail(fmt.Errorf("netif final trigger: %w", err))
						return
					}
				}
				if err := k.Yield(t); err != nil {
					return
				}
			}
			done = true
			wakeInjectors()
		}); err != nil {
			fail(fmt.Errorf("netif create: %w", err))
			return
		}

		// Housekeeper: a periodic timer tick (connection-timeout scanning in
		// a real server); fires at quiescent points. While netif is parked
		// on an idle live source it blocks instead: the kernel advances
		// virtual time to the earliest sleeper before it calls the idle
		// handler, so a timer sleep would spin an idle server's clock
		// instead of letting the machine park.
		if _, err := k.CreateThread(creator, "housekeeper", 12, func(t *kernel.Thread) {
			id, err := svc.timer.Alloc(t, 50_000)
			if err != nil {
				fail(fmt.Errorf("housekeeper: %w", err))
				return
			}
			for !done {
				if live != nil && live.parked {
					live.idleKeeper = t.ID()
					if k.Block(t) != nil {
						return
					}
					continue
				}
				if _, err := svc.timer.Wait(t, id); err != nil {
					fail(fmt.Errorf("housekeeper wait: %w", err))
					return
				}
			}
		}); err != nil {
			fail(fmt.Errorf("housekeeper create: %w", err))
			return
		}

		// Crasher: periodically fail a rotating system component (the Fig. 7
		// fault-injection variant).
		if cfg.FaultEvery > 0 {
			targets := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer, ids.sched}
			launchInjector(creator, "crasher", cfg.FaultEvery, nil, func() error {
				if err := k.FailComponent(targets[stats.Faults%len(targets)]); err != nil {
					return err
				}
				stats.Faults++
				return nil
			})
		}

		// Burster: periodically fail a rotating backing service together with
		// the storage component — a correlated double fault, so the service's
		// recovery (which leans on storage for G0/G1 restores) immediately
		// trips over its crashed dependency and must reboot it first.
		if cfg.CorrelatedEvery > 0 {
			targets := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer}
			launchInjector(creator, "burster", cfg.CorrelatedEvery, nil, func() error {
				if err := k.FailComponent(targets[stats.CorrelatedBursts%len(targets)]); err != nil {
					return err
				}
				if st := sys.Store(); st.Replicas() > 1 {
					// Replicated store: the storage half of the burst
					// fail-stops one replica (rotating), so the service
					// recovery proceeds under a degraded quorum and the
					// store µ-reboots the replica on its next operation.
					st.CrashReplica(stats.CorrelatedBursts % st.Replicas())
				} else if err := k.FailComponent(sys.StorageComp()); err != nil {
					return fmt.Errorf("storage: %w", err)
				}
				stats.CorrelatedBursts++
				return nil
			})
		}

		// Hangler: periodically wedge a thread inside a rotating backing
		// service (the latent-fault variant of the crasher). It only arms the
		// target: the invoke hook installed below fires the hang at the next
		// invocation entry into it, on whichever thread performs it, and the
		// watchdog then attributes it, fails the component, and the stub
		// recovers mid-request. A new hang is not armed while the last one
		// is pending. Only services on the per-request path are targeted —
		// sched is invoked at setup only, so a hang armed on it would never
		// fire.
		if cfg.HangEvery > 0 {
			targets := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer}
			hangler = launchInjector(creator, "hangler", cfg.HangEvery, func() bool { return hangAt != 0 }, func() error {
				hangAt = targets[stats.Hangs%len(targets)]
				return nil
			})
		}
	}

	// Loader: preload the site into the RAM filesystem, create the cache
	// lock, the per-worker request events, and then the workers themselves;
	// runs to completion first (highest priority).
	if _, err := k.CreateThread(nil, "loader", 1, func(t *kernel.Thread) {
		for _, p := range site {
			fd, err := svc.fs.Open(t, p)
			if err != nil {
				fail(fmt.Errorf("loader open %s: %w", p, err))
				return
			}
			if _, err := svc.fs.Write(t, fd, cfg.Files[p]); err != nil {
				fail(fmt.Errorf("loader write %s: %w", p, err))
				return
			}
			if err := svc.fs.Close(t, fd); err != nil {
				fail(fmt.Errorf("loader close %s: %w", p, err))
				return
			}
		}
		id, err := svc.lock.Alloc(t)
		if err != nil {
			fail(fmt.Errorf("loader lock: %w", err))
			return
		}
		cacheLock = id
		for i := range workerEvts {
			evt, err := svc.evt.Split(t, 0, kernel.Word(i))
			if err != nil {
				fail(fmt.Errorf("loader evt %d: %w", i, err))
				return
			}
			workerEvts[i] = evt
		}
		createWorkers(t)
		launchAux(t)
		start = time.Now()
	}); err != nil {
		return nil, err
	}

	if cfg.HangEvery > 0 {
		k.SetInvokeHook(func(t *kernel.Thread, comp kernel.ComponentID, fn string, phase kernel.InvokePhase) {
			if phase != kernel.PhaseEntry || comp != hangAt || hangAt == 0 {
				return
			}
			hangAt = 0
			stats.Hangs++
			if hangler.due(stats.Completed) {
				// The count came up while the hang was pending.
				_ = k.Wakeup(t, hangler.tid)
			}
			k.HangCurrent(t)
		})
	}

	if live != nil {
		// With nothing to run, the machine parks in the bridge until an
		// arrival or the stop, then lets netif see it. Netif has started
		// by then: it is runnable from its creation until it first parks.
		// Once netif has seen the stop, a machine with nothing to run is
		// done (or wedged).
		k.SetIdleHandler(func() bool {
			if live.ended {
				return false
			}
			live.wait(k)
			_ = k.Wakeup(nil, live.netif)
			return true
		})
	}

	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("webserver: %v run: %w", cfg.Variant, err)
	}
	if len(runErrs) > 0 {
		return nil, fmt.Errorf("webserver: %v: %w", cfg.Variant, errors.Join(runErrs...))
	}
	stats.Elapsed = time.Since(start)
	if stats.Elapsed > 0 {
		stats.Throughput = float64(stats.Completed) / stats.Elapsed.Seconds()
	}
	stats.Cores = cfg.Cores
	stats.VirtualTicks = k.Now()
	for _, cs := range k.CoreStats() {
		stats.Migrations += cs.Migrations
		stats.Dispatches += cs.Dispatches
	}
	return stats, nil
}

// readFile serves one path through the fd cache: the cache lock guards both
// the path→fd map and the shared descriptor's offset.
func readFile(t *kernel.Thread, svc *services, cacheLock kernel.Word, fdCache map[string]kernel.Word, path string) ([]byte, bool, error) {
	if err := svc.lock.Take(t, cacheLock); err != nil {
		return nil, false, err
	}
	release := func() error { return svc.lock.Release(t, cacheLock) }

	fd, ok := fdCache[path]
	if !ok {
		var err error
		fd, err = svc.fs.Open(t, path)
		if err != nil {
			_ = release()
			return nil, false, err
		}
		fdCache[path] = fd
	}
	if _, err := svc.fs.Lseek(t, fd, 0); err != nil {
		_ = release()
		return nil, false, err
	}
	body, err := svc.fs.Read(t, fd, 64*1024)
	if err != nil {
		_ = release()
		return nil, false, err
	}
	if err := release(); err != nil {
		return nil, false, err
	}
	if len(body) == 0 {
		return nil, false, nil
	}
	return body, true, nil
}

// runBaseline is the plain server: identical HTTP handling against an
// in-memory map, no component substrate (the Apache-comparator role). Like
// a componentized worker, it renders every response into one reused buffer.
func runBaseline(cfg Config) (*Stats, error) {
	stats := &Stats{Variant: VariantBaseline}
	site := paths(cfg.Files)
	reqs := make([][]byte, cfg.Requests)
	for i := range reqs {
		reqs[i] = FormatRequest(site[i%len(site)], true)
	}
	var resp []byte
	start := time.Now()
	for _, raw := range reqs {
		req, err := ParseRequest(raw)
		if err != nil {
			stats.Errors++
			continue
		}
		body, ok := cfg.Files[req.Path]
		if !ok {
			resp = AppendResponse(resp[:0], 404, notFoundBody)
		} else {
			resp = AppendResponse(resp[:0], 200, body)
		}
		if code, err := ParseResponseStatus(resp); err != nil || (code != 200 && code != 404) {
			stats.Errors++
			continue
		}
		stats.Completed++
		if stats.Completed%cfg.BucketSize == 0 {
			stats.Timeline = append(stats.Timeline, BucketPoint{Completed: stats.Completed, Elapsed: time.Since(start)})
		}
	}
	stats.Elapsed = time.Since(start)
	if stats.Elapsed > 0 {
		stats.Throughput = float64(stats.Completed) / stats.Elapsed.Seconds()
	}
	return stats, nil
}
