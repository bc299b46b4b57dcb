package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"superglue/internal/core"
	"superglue/internal/kernel"
	"superglue/internal/services/lock"
	"superglue/internal/services/ramfs"
	"superglue/internal/webserver"
)

// burstEvery is web-faults' correlated-burst period, in completions; it is
// also the stall window of both web workloads.
const burstEvery = 100

// webConfig returns the server configuration of a web workload. Both serve
// the seed's site with the SuperGlue variant and two workers; web-faults
// adds three storage replicas and a correlated burst every burstEvery
// completions.
func webConfig(name string, files map[string][]byte, requests int) webserver.Config {
	cfg := webserver.Config{
		Variant:    webserver.VariantSuperGlue,
		Workers:    2,
		Requests:   requests,
		Files:      files,
		BucketSize: 1,
		Replicas:   1,
	}
	if name == "web-faults" {
		cfg.Replicas = 3
		cfg.CorrelatedEvery = burstEvery
	}
	return cfg
}

// webRep runs one repetition of a web workload and gates its outcome.
func webRep(name string, cfg webserver.Config) (repOut, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	st, err := webserver.Run(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return repOut{ops: cfg.Requests, failed: cfg.Requests}, fmt.Errorf("%s: %w", name, err)
	}
	out := repOut{ops: cfg.Requests, failed: st.Errors}
	switch {
	case st.Completed != cfg.Requests:
		err = fmt.Errorf("%s: completed %d of %d requests", name, st.Completed, cfg.Requests)
	case st.Errors != 0:
		err = fmt.Errorf("%s: %d failed requests (%d degraded)", name, st.Errors, st.Degraded)
	case cfg.CorrelatedEvery > 0 && st.CorrelatedBursts != cfg.Requests/cfg.CorrelatedEvery:
		err = fmt.Errorf("%s: %d correlated bursts, want %d", name, st.CorrelatedBursts, cfg.Requests/cfg.CorrelatedEvery)
	case len(st.Timeline) != st.Completed:
		err = fmt.Errorf("%s: timeline has %d points for %d completions", name, len(st.Timeline), st.Completed)
	}
	if err != nil {
		return out, err
	}
	gaps, stalls := gapsAndStalls(st.Timeline, burstEvery)
	m, err := timingMetrics(gaps, stalls)
	if err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	m["ops_s"] = st.Throughput
	m["setup_s"] = (wall - st.Elapsed).Seconds()
	m["alloc_b_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Requests)
	m["recovered_ratio"] = float64(st.Completed) / float64(cfg.Requests)
	out.metrics, out.gaps, out.stalls = m, len(gaps), len(stalls)
	return out, nil
}

// timingMetrics reduces a repetition's gap and stall populations to the
// timing metrics, refusing percentiles with too few samples beyond them.
func timingMetrics(gaps, stalls []float64) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, t := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"gap_p50_us", gaps, 50}, {"gap_p99_us", gaps, 99},
		{"stall_p50_us", stalls, 50}, {"stall_p90_us", stalls, 90},
	} {
		v, err := tail(t.xs, t.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		m[t.name] = v
	}
	return m, nil
}

// webRig is the web request path assembled from the public API on one
// simulated machine: the lock and RAM-filesystem servers behind typed
// SuperGlue clients, the seed's site preloaded, one descriptor open per
// file. It replays requests on a single thread, so every call on the path
// can be timed from the outside.
type webRig struct {
	sys            *core.System
	lockComp, fsID kernel.ComponentID
	lock           *lock.Client
	fs             *ramfs.Client
	files          map[string][]byte
	paths          []string
	reqs           [][]byte
	lockID         kernel.Word
	fds            map[string]kernel.Word
}

func newWebRig(files map[string][]byte, replicas int) (*webRig, error) {
	sys, err := core.NewSystemWithStorage(core.OnDemand, 1, replicas)
	if err != nil {
		return nil, err
	}
	r := &webRig{sys: sys, files: files, fds: make(map[string]kernel.Word, len(files))}
	if r.lockComp, err = lock.Register(sys); err != nil {
		return nil, err
	}
	if r.fsID, err = ramfs.Register(sys); err != nil {
		return nil, err
	}
	cl, err := sys.NewClient("web-app")
	if err != nil {
		return nil, err
	}
	if r.lock, err = lock.NewClient(cl, r.lockComp); err != nil {
		return nil, err
	}
	if r.fs, err = ramfs.NewClient(cl, r.fsID); err != nil {
		return nil, err
	}
	for p := range files {
		r.paths = append(r.paths, p)
	}
	sort.Strings(r.paths)
	for _, p := range r.paths {
		r.reqs = append(r.reqs, webserver.FormatRequest(p, true))
	}
	return r, nil
}

// run boots the machine with one thread that preloads the site, allocates
// the cache lock, opens every file, and then calls body.
func (r *webRig) run(body func(t *kernel.Thread) error) error {
	return onThread(r.sys.Kernel(), func(t *kernel.Thread) error {
		if err := r.load(t); err != nil {
			return err
		}
		return body(t)
	})
}

func (r *webRig) load(t *kernel.Thread) error {
	for _, p := range r.paths {
		fd, err := r.fs.Open(t, p)
		if err != nil {
			return fmt.Errorf("preload open %s: %w", p, err)
		}
		if _, err := r.fs.Write(t, fd, r.files[p]); err != nil {
			return fmt.Errorf("preload write %s: %w", p, err)
		}
		r.fds[p] = fd
	}
	id, err := r.lock.Alloc(t)
	if err != nil {
		return fmt.Errorf("preload lock: %w", err)
	}
	r.lockID = id
	return nil
}

// serve handles request i of the replay stream (cycling over the site in
// path order, like the server's pre-rendered stream), recording one span
// per call when sp is non-nil, and checks the response body against the
// site's file.
func (r *webRig) serve(t *kernel.Thread, i int, sp *spans) error {
	raw := r.reqs[i%len(r.reqs)]
	root := sp.open(i, spanRequest, -1)
	s := sp.open(i, spanParse, root)
	req, err := webserver.ParseRequest(raw)
	sp.close(s)
	if err != nil {
		return err
	}
	fd, ok := r.fds[req.Path]
	if !ok {
		return fmt.Errorf("replay: no descriptor for %s", req.Path)
	}
	s = sp.open(i, spanTake, root)
	err = r.lock.Take(t, r.lockID)
	sp.close(s)
	if err != nil {
		return fmt.Errorf("replay take: %w", err)
	}
	s = sp.open(i, spanLseek, root)
	_, err = r.fs.Lseek(t, fd, 0)
	sp.close(s)
	if err != nil {
		return fmt.Errorf("replay lseek: %w", err)
	}
	s = sp.open(i, spanRead, root)
	body, err := r.fs.Read(t, fd, 64*1024)
	sp.close(s)
	if err != nil {
		return fmt.Errorf("replay read: %w", err)
	}
	s = sp.open(i, spanRelease, root)
	err = r.lock.Release(t, r.lockID)
	sp.close(s)
	if err != nil {
		return fmt.Errorf("replay release: %w", err)
	}
	s = sp.open(i, spanRespond, root)
	resp := webserver.FormatResponse(200, body)
	code, err := webserver.ParseResponseStatus(resp)
	sp.close(s)
	sp.close(root)
	if err != nil || code != 200 {
		return fmt.Errorf("replay %s: status %d: %v", req.Path, code, err)
	}
	if !bytes.Equal(webserver.ResponseBody(resp), r.files[req.Path]) {
		return fmt.Errorf("replay %s: served %d bytes that differ from the site's %d", req.Path, len(body), len(r.files[req.Path]))
	}
	return nil
}

// checkSite serves every file of the site once through the rig and compares
// each body with the generated file: the content check a web run makes
// besides the server's own status-code check.
func checkSite(files map[string][]byte, replicas int) error {
	r, err := newWebRig(files, replicas)
	if err != nil {
		return err
	}
	if err := r.run(func(t *kernel.Thread) error {
		for i := range r.reqs {
			if err := r.serve(t, i, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("site content check: %w", err)
	}
	return nil
}
