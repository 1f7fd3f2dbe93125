#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's library sources plus vip-serve and the
benchmark driver) as a Release build under .bench_build/perfbench; later
calls only rebuild what changed. The last line of standard output is the
driver's JSON result. See perfbench/README.md for the workloads and the
metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "work"
DRIVER_TIMEOUT_S = 170
WORKLOADS = ["cnn_tiles", "mrf_tiles", "fc_layers", "serve_mix"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for rel in ("src/CMakeLists.txt", "tools/vip-serve.cc", "examples/asm"):
        if not (ROOT / rel).exists():
            fail(f"{ROOT / rel} is missing: run this inside a checkout of "
                 "the simulator, which the benchmark builds from source")


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    WORK.mkdir(parents=True, exist_ok=True)


def source_digest():
    """SHA-1 over the sources the benchmark builds and measures."""
    h = hashlib.sha1()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "tools" / "vip-serve.cc", ROOT / "tools" / "cli.hh"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(args):
    """Run the driver in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen([str(BUILD / "perfbench-driver")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    return proc.returncode, out


def measure(workload, seed, seconds, trace, commit, digest):
    code, out = run_driver([
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--serve-bin", str(BUILD / "vip-serve"), "--root", str(ROOT),
        "--work-dir", str(WORK.relative_to(ROOT)),
        "--pins", str(HERE / "pins.json"),
        "--commit", commit, "--source-digest", digest])
    if code != 0:
        sys.stderr.write(out)
        fail(f"{workload}: driver exited with {code}", 1)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    record = WORK / f"result-{workload}-{seed}-trace{trace}.json"
    record.write_text(json.dumps({"host": lines[0], "result": result},
                                 indent=1) + "\n")
    return out, result


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test(commit, digest):
    """Every workload once, traced and untraced: schema and fail_frac.
    Prints each run's metric lines (name, value, unit) as it goes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, r = measure(workload, 1, 1, trace, commit, digest)
            print(f"== {workload} trace={trace}")
            sys.stdout.write("".join(out.strip().splitlines(True)[:-1]))
            problems = []
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(r)}")
            if r.get("failed") != 0 or not r.get("correct"):
                problems.append(f"{r.get('failed')} of "
                                f"{r.get('attempted')} failed")
            names = set(r.get("metrics", {}))
            want = expected_metrics(trace)
            if names != want:
                problems.append(f"metrics missing {sorted(want - names)}, "
                                f"extra {sorted(names - want)}")
            for name, m in r.get("metrics", {}).items():
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{name} = {v!r}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {workload} trace={trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true",
                    help="regenerate pins.json with the oracle strategies")
    a = ap.parse_args()
    check_checkout()
    build()
    if a.pin:
        code, _ = run_driver(["--pin", str(HERE / "pins.json"),
                              "--root", str(ROOT)])
        sys.exit(code)
    commit, digest = git_commit(), source_digest()
    if a.self_test:
        sys.exit(0 if self_test(commit, digest) else 1)
    if not a.workload:
        fail("--workload is required")
    out, _ = measure(a.workload, a.seed, a.seconds, a.trace, commit, digest)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
