#!/usr/bin/env python3
"""The repository benchmark: HyPer4 driven through its stable C ABI.

Builds libhyper4_abi (optimized, from this checkout) and the h4bench
program into .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload forward|churn|tenant_cycle|all \
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(spans are written to .bench_build/traces/). The last stdout line is the
JSON result ("all" runs the three workloads, one result line each).
Exit status: 0 ok, 1 a failed ABI call or output check, 2 build or usage
error, 3 an unoptimized or sanitizer build was asked to time.

    python3 perfbench/run.py --self-test [--sanitize address,undefined]

runs every workload in both modes at tiny size with all output checks,
and checks each result against BENCHMARK.json; it is the benchmark's own
test and may run on an instrumented build.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build(sanitize):
    """Configures (once) and builds h4bench; returns its path."""
    name = "perfbench" + ("-" + sanitize.replace(",", "-") if sanitize else "")
    bdir = os.path.join(BUILD_ROOT, name)
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(BUILD_ROOT, name + ".log")
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               f"-DENABLE_SANITIZERS={sanitize}"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", bdir])
    with open(logfile, "a") as out:
        for cmd in steps:
            try:
                rc, _ = run(cmd, 850, stdout=out, stderr=subprocess.STDOUT)
            except OSError as e:
                rc = f"{e}"
            if rc != 0:
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed ({' '.join(cmd[:3])}...): {rc}; log in {logfile}")
                return None
    return os.path.join(bdir, "h4bench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_h4bench(exe, workload, seed, seconds, trace, self_test=False):
    """Runs h4bench; returns (exit code, stdout lines, parsed result)."""
    tag = f"{workload}-seed{seed}" + ("-selftest" if self_test else "")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--p4-dir", os.path.join(ROOT, "examples", "p4"),
           "--tmp", os.path.join(BUILD_ROOT, "tmp"),
           "--spans-out", os.path.join(BUILD_ROOT, "traces", tag + ".jsonl")]
    if self_test:
        cmd.append("--self-test")
    # Set-up, the measured time and teardown; a run is about seconds + 20.
    timeout = 2 * seconds + 120
    rc, out = run(cmd, timeout, stdout=subprocess.PIPE, text=True)
    if rc is None:
        log(f"{workload}: h4bench exceeded {timeout} s")
        return 2, [], None
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return rc, lines, result


def shape_errors(result, names):
    """Differences between a result and the metric names it must carry."""
    if not isinstance(result, dict):
        return ["no JSON result"]
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(result)}")
    got = set(result.get("metrics", {}))
    if got != set(names):
        errs.append(f"metrics missing {sorted(set(names) - got)} "
                    f"extra {sorted(got - set(names))}")
    return errs


def self_test(sanitize):
    exe = build(sanitize)
    if exe is None:
        return 2
    s = spec()
    failures = 0
    for w in s["workloads"]:
        for trace in (False, True):
            names = [m["name"] for m in s["per_layer" if trace else "end_to_end"]]
            rc, lines, result = run_h4bench(exe, w["name"], 1, 1, trace, self_test=True)
            errs = shape_errors(result, names)
            if rc != 0 or errs or not result["correct"] or result["failed"]:
                failures += 1
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                log(f"self-test {w['name']} trace={int(trace)}: FAILED rc={rc} {errs}")
            else:
                print(f"self-test {w['name']} trace={int(trace)}: ok, "
                      f"{result['attempted']} calls and checks")
    print("self-test: " + ("ok" if failures == 0 else f"{failures} FAILED"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--sanitize", default="",
                    help="self-test only: -fsanitize list for both builds")
    a = ap.parse_args()
    if a.self_test:
        return self_test(a.sanitize)
    if a.sanitize:
        ap.error("--sanitize applies to --self-test only")
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if a.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {names} or all")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    exe = build("")
    if exe is None:
        return 2
    worst = 0
    for w in names if a.workload == "all" else [a.workload]:
        rc, lines, result = run_h4bench(exe, w, a.seed, a.seconds, a.trace)
        errs = shape_errors(result, [m["name"] for m in
                                     s["per_layer" if a.trace else "end_to_end"]])
        if errs:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            log(f"h4bench output does not match BENCHMARK.json: {errs} (exit {rc})")
            rc = rc if rc not in (0, 1) else 2
        else:
            sys.stdout.write("\n".join(lines) + "\n")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
