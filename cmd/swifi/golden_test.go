package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"superglue/internal/swifi"
)

// The trace-snapshot golden: FNV-64a hashes of the files cmd/swifi writes
// for six traced campaigns, committed in testdata/trace-golden.txt. The
// SWIFI tables only pin outcome counts; these hashes pin every byte of the
// merged trace snapshots (events, sequence numbers, aggregates) and of the
// rendered stdout, for any worker count and for halted-then-resumed and
// sharded-then-merged runs. Regenerate after an intended output change:
//
//	go test ./cmd/swifi -run TestTraceGolden -update
var update = flag.Bool("update", false, "rewrite testdata/trace-golden.txt from the current outputs")

const goldenPath = "testdata/trace-golden.txt"

// goldenCampaign is one pinned cmd/swifi invocation.
type goldenCampaign struct {
	name string
	rc   runConfig
}

// goldenCampaigns are, in CLI terms:
//
//	legacy:     swifi -trials 25 -seed 2026 -trace -trace-out trace-sample.json
//	storm-r3:   swifi -trials 25 -seed 2026 -shape storm -replicas 3 -trace -trace-out trace-sample.json
//	ramfs-wrap: swifi -service ramfs -trials 150 -seed 2026 -trace -trace-out trace-sample.json
//	correlated: swifi -trials 25 -seed 2026 -shape correlated -trace -trace-out trace-sample.json
//	during-recovery: swifi -trials 25 -seed 2026 -shape during-recovery -trace -trace-out trace-sample.json
//	legacy-watchdog: swifi -trials 25 -seed 2026 -watchdog -trace -trace-out trace-sample.json
//
// The third one records more events than the rolling stream's capacity,
// so it pins the trimmed stream (DroppedEvents > 0) as well. The last
// three pin the two deferred-secondary shapes and the watchdog-on half of
// Table II′. New campaigns are appended: TestTraceGoldenResumedAndMerged
// takes the third by index.
func goldenCampaigns() []goldenCampaign {
	base := runConfig{
		trials: 25, seed: 2026, workers: 1, mode: "on-demand", shape: "legacy",
		cores: 1, replicas: 1, trace: true, traceOut: "trace-sample.json",
	}
	storm := base
	storm.shape, storm.replicas = "storm", 3
	wrap := base
	wrap.service, wrap.trials = "ramfs", 150
	correlated := base
	correlated.shape = "correlated"
	during := base
	during.shape = "during-recovery"
	watchdog := base
	watchdog.watchdog = true
	return []goldenCampaign{
		{"legacy", base}, {"storm-r3", storm}, {"ramfs-wrap", wrap},
		{"correlated", correlated}, {"during-recovery", during}, {"legacy-watchdog", watchdog},
	}
}

// inDir runs fn with the working directory set to dir (cmd/swifi writes
// its snapshot, checkpoint and shard files relative to it) and os.Stdout
// redirected to dir/stdout.txt.
func inDir(t *testing.T, dir string, fn func() error) error {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	defer func() {
		os.Stdout = saved
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	return fn()
}

// hashOutputs returns "<campaign>/<file> <fnv64a>" for stdout.txt and
// every trace snapshot in dir.
func hashOutputs(t *testing.T, campaign, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.trace-sample.json"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(dir, "stdout.txt"))
	out := make(map[string]string, len(files))
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		out[campaign+"/"+filepath.Base(path)] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

// runGolden runs rc in a fresh directory and hashes its outputs.
func runGolden(t *testing.T, name string, rc runConfig) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := inDir(t, dir, func() error { return run(rc) }); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return hashOutputs(t, name, dir)
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# FNV-64a of cmd/swifi outputs; see golden_test.go (regenerate with -update).\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkHashes compares got against the golden entries of its campaign.
func checkHashes(t *testing.T, variant string, golden, got map[string]string) {
	t.Helper()
	for k, h := range got {
		if want, ok := golden[k]; !ok {
			t.Errorf("%s: %s has no golden entry (run with -update)", variant, k)
		} else if h != want {
			t.Errorf("%s: %s hash %s, golden %s", variant, k, h, want)
		}
	}
}

// TestTraceGolden pins the trace snapshots and stdout of the golden
// campaigns on one worker, then requires the identical bytes from four
// workers.
func TestTraceGolden(t *testing.T) {
	got := make(map[string]string)
	for _, gc := range goldenCampaigns() {
		for k, h := range runGolden(t, gc.name, gc.rc) {
			got[k] = h
		}
	}
	if *update {
		writeGolden(t, got)
		return
	}
	golden := readGolden(t)
	if len(got) != len(golden) {
		t.Errorf("produced %d outputs, golden has %d", len(got), len(golden))
	}
	checkHashes(t, "workers=1", golden, got)
	for _, gc := range goldenCampaigns() {
		gc.rc.workers = 4
		checkHashes(t, "workers=4", golden, runGolden(t, gc.name, gc.rc))
	}
}

// TestTraceGoldenResumedAndMerged requires the golden bytes from the
// trimmed-stream campaign when it is halted midway and resumed, and when
// it is split into two shards that -merge folds back together.
func TestTraceGoldenResumedAndMerged(t *testing.T) {
	golden := readGolden(t)
	gc := goldenCampaigns()[2]

	dir := t.TempDir()
	rc := gc.rc
	rc.workers, rc.checkpoint, rc.checkpointEvery, rc.haltAfter = 4, "ckpt.bin", 7, 60
	if err := inDir(t, dir, func() error { return run(rc) }); !errors.Is(err, swifi.ErrHalted) {
		t.Fatalf("halted run: got %v, want ErrHalted", err)
	}
	rc.haltAfter, rc.resume = 0, true
	if err := inDir(t, dir, func() error { return run(rc) }); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	checkHashes(t, "halted+resumed", golden, hashOutputs(t, gc.name, dir))

	dir = t.TempDir()
	for _, shard := range []string{"0/2", "1/2"} {
		rc := gc.rc
		rc.shard, rc.shardOut = shard, "sh.bin"
		if err := inDir(t, dir, func() error { return run(rc) }); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
	}
	shards := []string{"ramfs.shard1of2.sh.bin", "ramfs.shard0of2.sh.bin"}
	if err := inDir(t, dir, func() error { return runMerge(shards, gc.rc.traceOut) }); err != nil {
		t.Fatalf("merge: %v", err)
	}
	checkHashes(t, "sharded+merged", golden, hashOutputs(t, gc.name, dir))
}
