#!/usr/bin/env python3
"""Fixture tests for tools/vip-lint.

Each rule has a violating, a clean, and a suppressed fixture under
tests/lint/fixtures/. For every fixture this driver runs vip-lint on
that single file and asserts the exit code, the exact set of rule
names reported, and (for violating fixtures) the violation count —
so a rule that silently stops firing fails the same as one that
over-fires.

Runs under ctest as `lint_test`; takes no arguments and needs only a
Python interpreter.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
VIP_LINT = os.path.join(ROOT, "tools", "vip-lint")
FIXTURES = os.path.join(HERE, "fixtures")

REPORT_RE = re.compile(r"^(?P<path>.+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")

# fixture file -> (expected exit code, expected rule multiset as
# {rule: count}); {} means "no violations".
CASES = {
    "no_rand_violate.cc": (1, {"no-rand": 3}),
    "no_rand_clean.cc": (0, {}),
    "no_rand_suppressed.cc": (0, {}),
    "wall_clock_violate.cc": (1, {"wall-clock": 4}),
    "wall_clock_clean.cc": (0, {}),
    "wall_clock_suppressed.cc": (0, {}),
    "wall_clock_violate.py": (1, {"wall-clock": 2}),
    "wall_clock_clean.py": (0, {}),
    "wall_clock_suppressed.py": (0, {}),
    "pointer_order_violate.cc": (1, {"pointer-order": 4}),
    "pointer_order_clean.cc": (0, {}),
    "pointer_order_suppressed.cc": (0, {}),
    "unordered_iter_violate.cc": (1, {"unordered-iter": 2}),
    "unordered_iter_clean.cc": (0, {}),
    "unordered_iter_suppressed.cc": (0, {}),
    "raw_sync_violate.cc": (1, {"raw-sync": 4}),
    "raw_sync_clean.cc": (0, {}),
    "raw_sync_suppressed.cc": (0, {}),
    "unbounded_wait_violate.cc": (1, {"unbounded-wait": 2}),
    "unbounded_wait_clean.cc": (0, {}),
    "unbounded_wait_suppressed.cc": (0, {}),
    "stat_name_violate.cc": (1, {"stat-name": 3}),
    "stat_name_clean.cc": (0, {}),
    "stat_name_suppressed.cc": (0, {}),
    "no_exit_violate.cc": (1, {"no-exit": 4}),
    "no_exit_clean.cc": (0, {}),
    "no_exit_suppressed.cc": (0, {}),
    "include_guard_violate.hh": (1, {"include-guard": 1}),
    "include_guard_clean.hh": (0, {}),
    "include_guard_suppressed.hh": (0, {}),
    "using_namespace_violate.hh": (1, {"using-namespace": 1}),
    "using_namespace_clean.hh": (0, {}),
    "using_namespace_suppressed.hh": (0, {}),
    "unused_allow_violate.cc": (1, {"unused-allow": 1}),
    "unused_allow_clean.cc": (0, {}),
    "unused_allow_suppressed.cc": (0, {}),
}


def run_lint(*argv):
    return subprocess.run(
        [sys.executable, VIP_LINT, "--root", ROOT, *argv],
        capture_output=True, text=True)


def reported_rules(stdout):
    rules = {}
    for line in stdout.splitlines():
        m = REPORT_RE.match(line)
        if m:
            rules[m.group("rule")] = rules.get(m.group("rule"), 0) + 1
    return rules


def main():
    failures = []

    on_disk = sorted(os.listdir(FIXTURES))
    expected_files = sorted(CASES)
    if on_disk != expected_files:
        failures.append(
            f"fixture directory and CASES disagree:\n"
            f"  on disk only: {sorted(set(on_disk) - set(CASES))}\n"
            f"  in CASES only: {sorted(set(CASES) - set(on_disk))}")

    for fixture, (want_exit, want_rules) in sorted(CASES.items()):
        proc = run_lint(os.path.join(FIXTURES, fixture))
        got_rules = reported_rules(proc.stdout)
        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode}, expected {want_exit}")
        if got_rules != want_rules:
            problems.append(
                f"rules {got_rules or '{}'}, expected "
                f"{want_rules or '{}'}")
        if problems:
            failures.append(
                f"{fixture}: " + "; ".join(problems) +
                (f"\n  stdout: {proc.stdout.strip()}"
                 if proc.stdout.strip() else "") +
                (f"\n  stderr: {proc.stderr.strip()}"
                 if proc.stderr.strip() else ""))
        else:
            print(f"ok {fixture}")

    # CLI contract: --list-rules succeeds, a missing path is a usage
    # error (exit 2), and fixture paths never leak into a clean run.
    proc = run_lint("--list-rules")
    if proc.returncode != 0 or "unordered-iter" not in proc.stdout:
        failures.append("--list-rules: expected exit 0 with the rule "
                        f"catalog, got exit {proc.returncode}")
    else:
        print("ok --list-rules")

    proc = run_lint(os.path.join(FIXTURES, "does_not_exist.cc"))
    if proc.returncode != 2:
        failures.append(
            f"missing path: exit {proc.returncode}, expected 2")
    else:
        print("ok missing-path exit code")

    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"\nall {len(CASES) + 2} lint checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
