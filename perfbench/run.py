#!/usr/bin/env python3
"""The repository benchmark: whole `analyze` processes on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Run it from the root of a source checkout.  It builds `analyze`, the
per-layer probe and the calibration program with dune, then runs them as
fresh child processes, one at a time, for --seconds seconds, and checks
every output against perfbench/expected/.  The last line of standard
output is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  perfbench/NOTES.md explains the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench"  # temporary files, relative to the checkout root
ANALYZE = "_build/default/bin/analyze.exe"
PROBE = "_build/default/perfbench/probe.exe"
CALIB = "_build/default/perfbench/calib.exe"
# The calibration program's time on a quiet machine of the kind this
# benchmark was written on (2-core Xeon VM, 2.0 GHz).  wall_s and setup_s
# are scaled by CALIB_REF_S / (the run's median calibration time).
CALIB_REF_S = 0.3
SHOW = ["--show", "summary,chosen,metrics"]
HELP = [ANALYZE, "--help=plain"]
CSV = os.path.join(WORK, "csv-wide.csv")
MANIFEST = os.path.join(WORK, "manifest.json")
REPORT = os.path.join(WORK, "probe-report.txt")
CHILD_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850
# OCaml prints its GC totals to stderr at exit; no code changes.
CHILD_ENV = dict(os.environ, OCAMLRUNPARAM="v=0x400")

# workload -> (analyze arguments, expected-output file)
WORKLOADS = {
    "dcache": (["-c", "dcache"], "dcache"),
    "gpu-flops": (["-c", "gpu-flops"], "gpu-flops"),
    "csv-wide": (["-c", "cpu-flops", "--csv", CSV], "cpu-flops"),
    "dcache-j2": (["-c", "dcache", "--shards", "2", "--jobs", "2"], "dcache"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_heap_mb": "MB"}

# per-layer metric -> (unit, workloads whose probe run measures it);
# None: measured by this script on every workload.  A layer that does
# not run on a workload reads 0 there.
HWSIM = ("dcache", "gpu-flops", "dcache-j2")
ALL = tuple(WORKLOADS)
DCACHE = ("dcache", "dcache-j2")
PER_LAYER = {
    "init.minor_mwords": ("Mwords", None),
    "process.cpu_s": ("s", None),
    "process.minor_mwords": ("Mwords", None),
    "process.unattributed_ms": ("ms", None),
    "trace.overhead_ratio": ("ratio", None),
    "cachesim.activity_ms": ("ms", DCACHE),
    "cachesim.activity_warm_ms": ("ms", DCACHE),
    "cachesim.sims": ("count", DCACHE),
    "cachesim.us_per_sim": ("us", DCACHE),
    "cachesim.minor_mwords": ("Mwords", DCACHE),
    "hwsim.collect_ms": ("ms", HWSIM),
    "hwsim.readings": ("count", HWSIM),
    "hwsim.ns_per_reading": ("ns", HWSIM),
    "hwsim.minor_mwords": ("Mwords", HWSIM),
    "import.ms": ("ms", ("csv-wide",)),
    "import.mb_per_s": ("MB/s", ("csv-wide",)),
    "noise_filter.ms": ("ms", ALL),
    "noise_filter.events": ("count", ALL),
    "noise_filter.kept_ratio": ("ratio", ALL),
    "projection.ms": ("ms", ALL),
    "projection.accepted_ratio": ("ratio", ALL),
    "qrcp.ms": ("ms", ALL),
    "qrcp.pivots": ("count", ALL),
    "qrcp.chosen": ("count", ALL),
    "metric_solve.ms": ("ms", ALL),
    "metric_solve.metrics": ("count", ALL),
    "report.ms": ("ms", ALL),
    "front.ms_j1": ("ms", ("dcache-j2",)),
    "front.ms_j2": ("ms", ("dcache-j2",)),
    "front.speedup": ("x", ("dcache-j2",)),
    "merge.ms": ("ms", ("dcache-j2",)),
}

# Counts that must repeat exactly on every run.
EXACT = {
    "dcache": {"hwsim.readings": 250880, "cachesim.sims": 640},
    "dcache-j2": {"hwsim.readings": 250880, "cachesim.sims": 640},
    "gpu-flops": {"hwsim.readings": 280800},
}

SUMMARY = re.compile(
    r"^(?P<cat>[\w-]+): (?P<events>\d+) events measured; (?P<zero>\d+) all-zero "
    r"\(irrelevant\), (?P<noisy>\d+) above tau=(?P<tau>\S+) \(noisy\), "
    r"(?P<kept>\d+) kept; (?P<rest>.*?(?P<chosen>\d+) chosen by QRCP)$",
    re.M,
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build analyze, the probe and the calibration program from source;
    exit 1 if that fails."""
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/analyze.exe",
             "./perfbench/probe.exe", "./perfbench/calib.exe"],
            capture_output=True, timeout=BUILD_TIMEOUT_S)
        ok = p.returncode == 0
        err = p.stderr.decode(errors="replace")
    except (OSError, subprocess.TimeoutExpired) as e:
        ok, err = False, str(e)
    if not ok:
        log("perfbench: build failed:\n" + err[-4000:])
        sys.exit(1)


class Child:
    """One finished child process: exit code, stdout, wall and CPU
    seconds, and the GC totals it printed at exit."""

    def __init__(self, argv):
        t0, w0 = os.times(), time.perf_counter()
        try:
            p = subprocess.run(argv, capture_output=True, env=CHILD_ENV,
                               timeout=CHILD_TIMEOUT_S)
            self.rc, self.out, err = p.returncode, p.stdout, p.stderr
        except subprocess.TimeoutExpired:
            self.rc, self.out, err = None, b"", b""
        self.wall = time.perf_counter() - w0
        t1 = os.times()
        self.cpu = (t1.children_user - t0.children_user
                    + t1.children_system - t0.children_system)
        self.gc = {k.decode(): float(v) for k, v in
                   re.findall(rb"^(\w+): ([0-9.]+)$", err, re.M)}
        self.err = err


class Tally:
    """Invocations attempted and failed; a failure is a non-zero exit, a
    timeout or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, child, what, ok):
        self.attempted += 1
        if child.rc is None:
            log(f"perfbench: {what}: timed out after {CHILD_TIMEOUT_S} s")
        elif child.rc != 0:
            log(f"perfbench: {what}: exit {child.rc}: "
                + child.err.decode(errors="replace")[-2000:])
        elif not ok:
            log(f"perfbench: {what}: output differs from the expected output")
        else:
            return True
        self.failed += 1
        return False


def read_expected(name):
    with open(os.path.join(HERE, "expected", name + ".txt"), "rb") as f:
        return f.read()


def gen_csv(seed):
    """Write the csv-wide file for `seed`; return the planted counts."""
    p = subprocess.run([PROBE, "gen-csv", str(seed), CSV], capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        log("perfbench: gen-csv failed: " + p.stderr.decode(errors="replace"))
        sys.exit(1)
    planted = dict(line.split() for line in p.stdout.decode().splitlines())
    with open(CSV, "rb") as f:
        if hashlib.md5(f.read()).hexdigest() != planted["digest"]:
            log("perfbench: gen-csv wrote a file that differs from its digest")
            sys.exit(1)
    return planted


def csv_expected(planted):
    """cpu-flops's expected output, with the planted events added to the
    summary line's counts; chosen events and metrics stay the same."""
    text = read_expected("cpu-flops").decode()
    m = SUMMARY.search(text)
    line = (f"{m['cat']}: {planted['events']} events measured; "
            f"{int(m['zero']) + int(planted['zero'])} all-zero (irrelevant), "
            f"{int(m['noisy']) + int(planted['noisy'])} above tau={m['tau']} (noisy), "
            f"{int(m['kept']) + int(planted['unrepresentable'])} kept; {m['rest']}")
    return (text[:m.start()] + line + text[m.end():]).encode()


def rounds(seconds, minimum, step):
    """Call step() until one more call would overrun `seconds`, and at
    least `minimum` times."""
    start, took = time.perf_counter(), []
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(took) >= minimum and elapsed + statistics.median(took) > seconds:
            return len(took)


def help_ok(child):
    return child.out.startswith(b"NAME") and "minor_words" in child.gc


def output_ok(child, expected):
    return child.out == expected and "top_heap_words" in child.gc


def end_to_end(workload, argv, expected, seconds, tally):
    """wall_s and setup_s are the medians of the run's invocations, scaled
    to the reference machine speed that the calibration program, timed
    in the same run, reads; the table also prints them unscaled."""
    calibs, walls, setups, heaps = [], [], [], []

    def step():
        k = Child([CALIB])
        if tally.check(k, "calibration", bool(k.out)):
            calibs.append(k.wall)
        h = Child(HELP)
        if tally.check(h, "analyze --help", help_ok(h)):
            setups.append(h.wall)
        c = Child(argv)
        if tally.check(c, workload, output_ok(c, expected)):
            walls.append(c.wall)
            heaps.append(c.gc["top_heap_words"] * 8 / 1e6)

    rounds(seconds, 3, step)

    def median(v):
        return statistics.median(v) if v else 0.0

    scale = CALIB_REF_S / median(calibs) if calibs else 0.0
    for name, v in (("calib", calibs), ("wall", walls), ("setup", setups)):
        print(f"{workload:10} {name + ' (unscaled)':26} {median(v):14.6g} s       "
              f"(median of {len(v)})")
    return {"wall_s": (median(walls) * scale, len(walls)),
            "setup_s": (median(setups) * scale, len(setups)),
            "peak_heap_mb": (median(heaps), len(heaps))}


def pipeline_ms(path):
    """The `pipeline` span of a run manifest, or None if there is none."""
    try:
        with open(path) as f:
            spans = json.load(f)["spans"]
        return next(s["total_ns"] for s in spans if s["span"] == "pipeline") / 1e6
    except (OSError, ValueError, KeyError, TypeError, StopIteration):
        return None


def probe_metrics(child):
    """The probe's "name value" lines, or {} if they do not parse."""
    try:
        return {k: float(v) for k, v in
                (line.split() for line in child.out.decode().splitlines())}
    except ValueError:
        return {}


def traced(workload, argv, expected, seconds, tally):
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    def step():
        h = Child(HELP)
        if tally.check(h, "analyze --help", help_ok(h)):
            add("init.minor_mwords", h.gc["minor_words"] / 1e6)
        c = Child(argv)
        if tally.check(c, workload, output_ok(c, expected)):
            add("process.cpu_s", c.cpu)
            add("process.minor_mwords", c.gc["minor_words"] / 1e6)
            add("wall", c.wall)
        if os.path.exists(MANIFEST):
            os.remove(MANIFEST)
        m = Child(argv + ["--manifest", MANIFEST])
        span_ms = pipeline_ms(MANIFEST)
        if tally.check(m, workload + " --manifest",
                       m.out == expected and span_ms is not None):
            add("process.unattributed_ms", m.wall * 1e3 - span_ms)
            add("manifest_wall", m.wall)
        extra = [CSV] if workload == "csv-wide" else []
        p = Child([PROBE, "layers", workload, REPORT] + extra)
        got = probe_metrics(p)
        report = open(REPORT, "rb").read() + b"\n" if p.rc == 0 else b""
        ok = report == expected and probe_counts_ok(workload, got, expected)
        if tally.check(p, workload + " probe", ok):
            for k, v in got.items():
                add(k, v)

    n = rounds(seconds, 1, step)
    med = {k: statistics.median(v) for k, v in samples.items()}
    if "wall" in med and "manifest_wall" in med:
        med["trace.overhead_ratio"] = med["manifest_wall"] / med["wall"]
    out = {}
    for name, (_unit, where) in PER_LAYER.items():
        runs_here = where is None or workload in where
        if runs_here and name not in med and tally.failed == 0:
            log(f"perfbench: {workload}: per-layer metric {name} was not measured")
            tally.failed += 1
        out[name] = (med.get(name, 0.0), n)
    return out


def probe_counts_ok(workload, got, expected):
    """The probe's counts, read from returned values, must match the
    expected summary line and the fixed collection sizes."""
    m = SUMMARY.search(expected.decode())
    want = dict(EXACT.get(workload, {}))
    want["noise_filter.events"] = int(m["events"])
    want["qrcp.chosen"] = int(m["chosen"])
    return all(got.get(k) == v for k, v in want.items())


def self_test(seed):
    """The same seed must give a byte-identical csv-wide file, another
    seed a different one."""
    digests = []
    for s in (seed, seed, seed + 1):
        planted = gen_csv(s)
        digests.append(planted["digest"])
        log(f"seed {s}: {planted}")
    ok = digests[0] == digests[1] and digests[0] != digests[2]
    print("csv-wide generator self-test:", "ok" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.self_test:
            sys.exit(0 if self_test(args.seed) else 1)
        analyze_args, expected_name = WORKLOADS[args.workload]
        argv = [ANALYZE] + analyze_args + SHOW
        if args.workload == "csv-wide":
            expected = csv_expected(gen_csv(args.seed))
        else:
            expected = read_expected(expected_name)
        tally = Tally()
        if args.trace:
            values = traced(args.workload, argv, expected, args.seconds, tally)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            values = end_to_end(args.workload, argv, expected, args.seconds, tally)
            units = END_TO_END
    finally:
        for path in (CSV, MANIFEST, REPORT):
            if os.path.exists(path):
                os.remove(path)

    for name, (value, n) in values.items():
        print(f"{args.workload:10} {name:26} {value:14.6g} {units[name]:7} (median of {n})")
    print(f"{args.workload:10} fail_ratio {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()},
    }))


if __name__ == "__main__":
    main()
