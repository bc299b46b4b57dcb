package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostRecord describes the machine a run measured on, printed with every
// result so a noisy run can be diagnosed from its output alone.
type hostRecord struct {
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Clocksource string  `json:"clocksource"`
	StealShare  float64 `json:"steal_share"`
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks; ok is false where the file is absent.
func cpuTimes() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields past steal (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the hypervisor stole between
// its creation and share.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func newStealMeter() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{steal: s, total: t, ok: ok}
}

// share returns the stolen share of all CPU time since the meter started,
// or -1 where /proc/stat is unavailable.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTimes()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func clocksource() string {
	raw, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// host completes the record at the end of a run.
func (m stealMeter) host() hostRecord {
	return hostRecord{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Clocksource: clocksource(),
		StealShare:  m.share(),
	}
}

// resetPeakRSS sets the process's resident-set high-water mark, which
// getrusage reports as its maximum RSS, back to the current RSS. Where
// /proc/self/clear_refs is unavailable the mark is left alone, and
// peakRSSMB reports the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
