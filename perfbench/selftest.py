"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` untraced and traced, and fails (exit 1)
when a run exits non-zero, reports an incorrect output, or misses a metric
that BENCHMARK.json declares.  It also runs with a corrupted golden file,
which must raise the error rate, and from a directory holding only the
benchmark, where the run must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

failures = []


def bench(*args, cwd=ROOT, golden=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "7",
           "--seconds", "1", "--tiny", *args]
    if golden:
        cmd += ["--golden", golden]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    os.makedirs(OUT, exist_ok=True)

    for w in WORKLOADS:
        for trace in (0, 1):
            proc, res = bench("--workload", w, "--trace", str(trace))
            label = f"{w} trace={trace}"
            if proc.returncode != 0 or res is None:
                expect(False, f"{label}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            expect(res["correct"] and res["failed"] == 0, f"{label}: outputs correct")
            missing = [m for m in declared[trace] if m not in res["metrics"]]
            expect(not missing, f"{label}: every declared metric present {missing or ''}")

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden["digests"] = {k: "0" * 64 for k in golden["digests"]}
    corrupt = os.path.join(OUT, "golden-corrupted.json")
    with open(corrupt, "w") as fh:
        json.dump(golden, fh)
    for w in ("table-compute", "verify-checks"):
        proc, res = bench("--workload", w, "--trace", "0", golden=corrupt)
        raised = (res is not None and not res["correct"] and res["failed"] > 0
                  and res["metrics"]["ok_rate"]["value"] < 1.0)
        expect(raised, f"{w}: a corrupted golden raises the error rate")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, res = bench("--workload", "table-compute", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and res is None,
           "without the program the run fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
