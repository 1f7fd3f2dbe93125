#!/usr/bin/env python3
"""Hostile command lines and binaries for vip-run, vip-asm, vip-serve
and a sweep bench.

Each case runs one binary on input it must reject and asserts the exit
code (2 for a bad flag, 1 for a bad file) and that stderr names the
offending input. A process killed by a signal (SIGABRT from a panic or
an uncaught exception) fails its case, whatever it printed. Two
control cases check that well-formed flags still run, and each tool's
--help must exit 0 and list every flag the tool accepts.

Usage: cli_test.py VIP_RUN VIP_ASM VIP_SERVE BENCH
(BENCH is a sweep bench that takes a FRAC argument, e.g. fig3_roofline.)
"""

import os
import re
import struct
import subprocess
import sys
import tempfile


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=60)


def main():
    if len(sys.argv) != 5:
        print(__doc__.strip().splitlines()[-2], file=sys.stderr)
        return 2
    vip_run, vip_asm, vip_serve, bench = sys.argv[1:]
    failures = []
    # Every flag each tool accepts, and so every row its --help lists.
    shared = ["--jobs", "--no-fast-forward", "--no-fast-path"]
    help_rows = [
        (vip_run, ["<prog.s>", "--reg", "--dram", "--dump-dram",
                   "--dump-sp", "--dump-regs", "--dump-spec", "--stats",
                   "--json-stats", "--inject", "--max-cycles",
                   "--timeout-ms", "--vaults", "--no-fast-forward",
                   "--no-fast-path", "--strict", "--trace", "--resume",
                   "--help"]),
        (vip_serve, ["--stdin", "--socket", "--jobs", "--cache",
                     "--journal", "--max-queue", "--help"]),
        (vip_asm, ["-o", "-l", "-d", "--help"]),
        (bench, ["FRAC"] + shared + ["--help"]),
    ]

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, data):
            path = os.path.join(tmp, name)
            with open(path, "wb") as f:
                f.write(data)
            return path

        halt = write("halt.s", b"halt\n")
        garbage = write("garbage.bin", b"garbage\n")
        # mov.imm (opcode 9) with the literal-follows flag (rs2 = 1)
        # and no literal word after it.
        no_literal = write("no_literal.bin", struct.pack("<Q", 9 | 1 << 32))
        twelve = write("twelve.bin", b"\0" * 12)
        wide = write("wide.s", b"add.imm r1, r1, 99999999\nhalt\n")
        wide_bin = os.path.join(tmp, "wide.bin")
        unwritable = os.path.join(tmp, "no-such-dir", "halt.bin")

        # (name, argv, exit code, text stderr must contain)
        cases = [
            ("reg-not-a-number", [vip_run, halt, "--reg", "abc=1"], 2,
             "'abc' is not a number"),
            ("dram-not-a-number", [vip_run, halt, "--dram", "0x10=zz"], 2,
             "'zz' is not a number"),
            ("reg-without-value", [vip_run, halt, "--reg", "7"], 2,
             "'7' has no '='"),
            ("dram-too-wide", [vip_run, halt, "--dram", "0x1000=70000"], 2,
             "70000 does not fit in a 16-bit DRAM word"),
            ("jobs-negative", [vip_serve, "--stdin", "--jobs", "-1"], 2,
             "--jobs: -1 is outside [0, 256]"),
            # Rejected while parsing, before any worker starts.
            ("jobs-over-bound", [vip_serve, "--stdin", "--jobs", "257"], 2,
             "--jobs: 257 is outside [0, 256]"),
            ("dump-sp-past-scratchpad",
             [vip_run, halt, "--dump-sp", "0xffff0,4"], 2,
             "--dump-sp: 4 words at 0xffff0 end past the 4096-byte "
             "scratchpad"),
            ("dump-dram-past-capacity",
             [vip_run, halt, "--dump-dram", "0xffffffffffff0,4"], 1,
             "0xffffffffffff0: a read of 4 words ends past the DRAM "
             "capacity"),
            ("disasm-invalid-opcode", [vip_asm, "-d", garbage], 1,
             garbage + ": invalid opcode field 103"),
            ("disasm-truncated-literal", [vip_asm, "-d", no_literal], 1,
             no_literal + ": word 0: wide mov.imm has no literal word"),
            ("disasm-partial-word", [vip_asm, "-d", twelve], 1,
             twelve + ": binary of 12 bytes is not a whole number of "
             "8-byte words"),
            ("asm-too-wide-immediate", [vip_asm, wide, "-o", wide_bin], 1,
             wide + ": immediate 99999999 does not fit the 26-bit field"),
            ("asm-unwritable-output", [vip_asm, halt, "-o", unwritable], 1,
             "cannot write " + unwritable),
            ("reg-missing-value", [vip_run, halt, "--reg"], 2,
             "--reg needs a value"),
            ("bench-frac-not-a-number", [bench, "abc"], 2,
             "FRAC: 'abc' is not a number in (0, 1]"),
            ("bench-frac-zero", [bench, "0"], 2,
             "FRAC: '0' is not a number in (0, 1]"),
            ("bench-frac-negative", [bench, "-1"], 2, "-1"),
            ("bench-frac-above-one", [bench, "5"], 2,
             "FRAC: '5' is not a number in (0, 1]"),
        ] + [
            (f"unknown-flag-{os.path.basename(tool)}",
             [tool, "--no-such-flag"], 2, "unknown flag --no-such-flag")
            for tool, _ in help_rows
        ]
        for name, argv, want_exit, want_text in cases:
            proc = run(argv)
            problems = []
            if proc.returncode != want_exit:
                problems.append(
                    f"exit {proc.returncode}, expected {want_exit}")
            if want_text not in proc.stderr:
                problems.append(f"stderr lacks {want_text!r}")
            if problems:
                failures.append(f"{name}: " + "; ".join(problems) +
                                f"\n  stderr: {proc.stderr.strip()}")
            else:
                print(f"ok {name}")

        # --help exits 0 and lists every row of the tool's table, each
        # at the start of its own line.
        for tool, rows in help_rows:
            name = f"help-{os.path.basename(tool)}"
            proc = run([tool, "--help"])
            missing = [r for r in rows if not re.search(
                r"^  " + re.escape(r) + r"( |$)", proc.stdout, re.M)]
            if proc.returncode != 0 or missing:
                failures.append(f"{name}: exit {proc.returncode}, "
                                f"missing rows {missing}"
                                f"\n  stdout: {proc.stdout.strip()}")
            else:
                print(f"ok {name}")

        # Controls: a negative DRAM word, a hex register value, and a
        # binary that round-trips through vip-asm.
        proc = run([vip_run, halt, "--dram", "0x1000=-5", "--reg", "7=0x10",
                    "--dump-dram", "0x1000,1", "--dump-regs"])
        if proc.returncode != 0 or "dram[0x1000]: -5" not in proc.stdout \
                or not re.search(r"\br7 +10\b", proc.stdout):
            failures.append(f"vip-run control: exit {proc.returncode}"
                            f"\n  stdout: {proc.stdout.strip()}"
                            f"\n  stderr: {proc.stderr.strip()}")
        else:
            print("ok vip-run-control")
        halt_bin = os.path.join(tmp, "halt.bin")
        asm = run([vip_asm, halt, "-o", halt_bin])
        dis = run([vip_asm, "-d", halt_bin])
        if asm.returncode != 0 or dis.returncode != 0 or \
                dis.stdout != "   0: halt\n":
            failures.append(f"vip-asm control: exits {asm.returncode}, "
                            f"{dis.returncode}\n  stdout: {dis.stdout!r}")
        else:
            print("ok vip-asm-control")

    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"\nall {len(cases) + len(help_rows) + 2} cli checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
