#!/usr/bin/env python3
"""End-to-end curation benchmark: build, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (and the library it
links) under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild only what changed. The last line of standard output is the
result object described in perfbench/README.md. --selftest runs every
workload at tiny size and checks the metric names, units and the
correctness gate.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ["stream_ingest", "curate_subsample", "train_full", "serve_closed"]
RUN_TIMEOUT_S = 170


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure once, then build the benchmark binary; returns its path."""
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        sys.exit("perfbench: the library sources are not next to perfbench/")
    out = build_root() / "perfbench"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def git_sha():
    """HEAD's commit, read from .git without running git; 'unknown' outside
    a git checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(binary, args):
    """Run the benchmark binary; returns (exit code, stdout)."""
    work = build_root() / "work"
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary)] + args + ["--work-dir", str(work), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def selftest(binary):
    """Tiny pass of every workload: every metric BENCHMARK.json names is
    emitted with its unit, every case is correct, and a deliberately wrong
    reference hash shows up as failed cases."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
        for trace in ("0", "1"):
            code, out = run(binary, base + ["--trace", trace])
            if code != 0:
                problems.append("%s trace %s: exit %d" % (workload, trace, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace %s: metrics %s, expected %s"
                                % (workload, trace, got, expected[trace]))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace %s: %s failed of %s"
                                % (workload, trace, result["failed"],
                                   result["attempted"]))
        code, out = run(binary, base + ["--trace", "0", "--wrong-reference"])
        result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
        if result.get("correct", True) or result.get("failed") != result.get("attempted"):
            problems.append("%s: a wrong reference hash was not caught (%s)"
                            % (workload, result))
        print("selftest %-16s %s" % (workload, "ok" if len(problems) == before else "FAIL"),
              file=sys.stderr)
    for p in problems:
        print("selftest FAIL: " + p, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    code, out = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", repr(args.seconds), "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
