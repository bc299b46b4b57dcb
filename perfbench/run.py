#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload web-steady --seed 1 --seconds 40 --trace 0

builds the Go program in perfbench/ into .bench_build/ (the Go build cache
lives there too, so nothing is written outside the checkout), runs it, and
passes its output through: the last line is the JSON result.

Steadiness self-check:

    python3 perfbench/run.py --steady 10 [--workload NAME ...] [--seconds S] [--sets 2]

runs each workload N times, with seeds 1..N in the first set, N+1..2N in
the second and so on, and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4),
the quartile spread and (max-min) as shares of the median. It flags every
metric, setup_s included, whose quartile spread exceeds its bound in
BENCHMARK.json, and notes a quartile spread above a third of the bound and
a (max-min) spread above the bound. The per-run values go to
.bench_build/steady-<workload>-set<k>.json. With --sets 2 it repeats the
whole set and flags a later set's median that differs from the first
set's, in either direction, by more than the bound.

Without --seconds, both modes measure BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Builds the benchmark binary; returns False (after reporting) on failure."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_once(args, capture=False):
    """Runs the binary with args from the checkout root; returns (code, stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1, ""
    out = proc.stdout.decode(errors="replace") if capture else ""
    return proc.returncode, out


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def steady(opts):
    spec, e2e = bounds()
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    seconds = opts.seconds or spec["run_seconds"]
    flagged = 0
    for name in workloads:
        medians = []
        for s in range(opts.sets):
            values = {}
            for seed in range(s * opts.steady + 1, (s + 1) * opts.steady + 1):
                code, out = run_once(["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"], capture=True)
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    print(f"{name} seed {seed}: run failed (exit {code})")
                    return 1
                res = json.loads(lines[-1])
                if not res["correct"] or res["failed"]:
                    print(f"{name} seed {seed}: incorrect result {lines[-1]}")
                    return 1
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                for line in lines:
                    if line.startswith("host speed"):
                        values.setdefault("host_speed", []).append(float(line.split(")")[1].split()[0]))
            print(f"{name} set {s + 1}: {opts.steady} runs of {seconds} s")
            with open(os.path.join(BUILD, f"steady-{name}-set{s + 1}.json"), "w") as f:
                json.dump(values, f, indent=1)
            if "host_speed" in values:
                hs = values["host_speed"]
                print(f"  host speed       median {statistics.median(hs):.4g} min {min(hs):.4g} max {max(hs):.4g} (not scaled; not flagged)")
            set_medians = {}
            for k in e2e:
                xs = values[k]
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4)
                iqr = (q3 - q1) / med if med else float("inf")
                rng = (max(xs) - min(xs)) / med if med else float("inf")
                notes = []
                if iqr > e2e[k]["bound"]:
                    notes.append("SPREAD ABOVE BOUND")
                    flagged += 1
                elif iqr > e2e[k]["bound"] / 3:
                    notes.append("spread above a third of the bound")
                if rng > e2e[k]["bound"]:
                    notes.append("range above the bound")
                flag = "  " + "; ".join(notes) if notes else ""
                print(f"  {k:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"iqr/med {iqr:.3f} (max-min)/med {rng:.3f} bound {e2e[k]['bound']}{flag}")
                set_medians[k] = med
            medians.append(set_medians)
        for s, later in enumerate(medians[1:], start=2):
            for k, m in e2e.items():
                d = abs(later[k] - medians[0][k]) / medians[0][k]
                if d > m["bound"]:
                    print(f"  {name} {k}: set {s} median differs from set 1 by {d:.3f} > bound {m['bound']}")
                    flagged += 1
    print(f"{flagged} metric(s) flagged")
    return 1 if flagged else 0


def main():
    if "--steady" not in sys.argv[1:]:
        args = sys.argv[1:]
        if not any(a == "--seconds" or a.startswith("--seconds=") for a in args):
            try:
                spec, _ = bounds()
            except (OSError, ValueError, KeyError) as e:
                print(f"perfbench: cannot read run_seconds from BENCHMARK.json: {e}", file=sys.stderr)
                return 1
            args += ["--seconds", str(spec["run_seconds"])]
        if not build():
            return 1
        code, _ = run_once(args)
        return code
    p = argparse.ArgumentParser(description="perfbench steadiness self-check")
    p.add_argument("--steady", type=int, required=True, help="runs per workload and set")
    p.add_argument("--workload", action="append", help="workload to check (repeatable; default all)")
    p.add_argument("--seconds", type=int, help="measurement window (default: run_seconds)")
    p.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    opts = p.parse_args()
    if opts.steady < 2 or opts.sets < 1:
        p.error("--steady needs at least 2 runs and --sets at least 1")
    if not build():
        return 1
    return steady(opts)


if __name__ == "__main__":
    sys.exit(main())
