"""The khbn benchmark: one workload per process, a closed loop of requests.

    python3 perfbench/run.py --workload table-compute --seed 1 --seconds 40 --trace 0

Run it from the root of a source tree that has ``src/khbn``.  A single
client sends one request at a time through ``khbn.cli.main`` in this
process (no ``--jobs``, no subprocess per request) and waits for it.  A
pass runs every request of the workload once; the run makes at least one
pass and starts another only while it fits in ``--seconds``.  The latency
percentiles pool every computed request of every pass; ``wall_s`` is the
median pass.  Outputs are checked after each pass, outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run makes an untraced, a traced and an untraced pass and
prints the per-layer metrics of the traced one (see README.md).  Files the
run leaves behind go to ``.perfbench_out/`` at the root.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here to the first request

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 5

sys.path.insert(0, HERE)
from workloads import WORKLOADS, Checker, make_inputs  # noqa: E402
from tracer import COUNTS, REQUEST_SPAN, TARGETS, Tracer  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_s": "s",
                    "req_p90_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}
LAYER_TIMES = list(dict.fromkeys(prefix for _, _, prefix in TARGETS))
LAYER_CALLS = ["linkdiag.parse", "linkdiag.resolve", "linkdiag.edge_transition",
               "khcube.build", "ringalg.f2_rank", "homology.bigraded", "sseq.pages"]
CACHE_HIT_MARK = "cache hit"


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    error: str
    seconds: float


def import_khbn():
    """Import khbn from this tree's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "khbn", "__init__.py")):
        raise SetupError(f"no src/khbn under {ROOT}; run from a khbn source tree")
    sys.path.insert(0, SRC)
    import khbn
    import khbn.cli
    import khbn.linkdiag
    import khbn.ringalg
    where = os.path.dirname(os.path.abspath(khbn.__file__))
    if where != os.path.join(SRC, "khbn"):
        raise SetupError(f"khbn was imported from {where}, not from {SRC}")
    return khbn


def setup(workload, seed, tiny):
    """Import khbn, load the table and make the inputs."""
    khbn = import_khbn()
    table = khbn.linkdiag.load_link_table()
    inputs = make_inputs(workload, seed, table, tiny)
    return khbn, table, inputs


def load_golden(path):
    with open(path) as fh:
        return json.load(fh)["digests"]


class Client:
    """Sends one request at a time to ``khbn.cli.main`` in this process.

    stdout and stderr go to one pair of buffers, emptied before each request.
    click caches a text wrapper per stream object it has written to, and the
    cache keeps both alive, so a fresh pair per request (as ``click.testing.CliRunner``
    makes) would grow the process by about 1 MB a pass, and ``peak_rss_mb``
    with the number of passes that fit in the run.
    """

    def __init__(self, main):
        self.main = main
        self.out = io.StringIO()
        self.err = io.StringIO()

    def __call__(self, argv):
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        code, error = 0, ""
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                self.main.main(args=argv, prog_name="khbn")
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else int(e.code is not None)
            except Exception as e:  # noqa: BLE001 - a request that raises is a failure
                code, error = 1, f"raised {type(e).__name__}: {e}"
        return code, self.out.getvalue(), self.err.getvalue(), error


def run_pass(inputs, client, tracer, pass_no):
    """One pass over every request, timed as a whole and per request."""
    cache = None
    if inputs.uses_cache:
        cache = os.path.join(OUT, f"cache-{os.getpid()}-{pass_no}")
        shutil.rmtree(cache, ignore_errors=True)
    outs = []
    t_pass = time.perf_counter()
    for idx, req in enumerate(inputs.requests):
        argv = req.argv + (["--cache-dir", cache] if cache else [])
        if tracer is not None:
            got, dt = tracer.request_span(idx, client, argv)
        else:
            t0 = time.perf_counter()
            got = client(argv)
            dt = time.perf_counter() - t0
        outs.append(Outcome(*got, dt))
    wall = time.perf_counter() - t_pass
    if cache:
        shutil.rmtree(cache, ignore_errors=True)
    return wall, outs


def setup_samples(args, first):
    """setup_s samples: this process's own plus fresh processes' setups."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise SetupError(f"setup-only run failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_sha():
    """HEAD of the tree if it is a git checkout, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, khbn, inputs, cache_env):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "kernel": getattr(khbn.ringalg, "KERNEL", "absent"),
        "KHBN_FORCE_PURE_KERNEL": os.environ.get("KHBN_FORCE_PURE_KERNEL"),
        "KHBN_CACHE_DIR_was_set": cache_env is not None,
        "requests_per_pass": len(inputs.requests),
        **inputs.env,
    }


def machine_speed_ms():
    """Median time of a fixed pure-Python loop, recorded to date the
    machine's speed; no metric is scaled by it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(walls, seconds_all, inputs, setup_s, failed, attempted):
    lat = [dt for seconds in seconds_all
           for req, dt in zip(inputs.requests, seconds) if req.hit_of is None]
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(lat),
        "req_p90_s": p90(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - failed / attempted,
    }
    extra = {"latency_samples": len(lat),
             "samples_beyond_p90": sum(x > values["req_p90_s"] for x in lat),
             "passes": len(walls), "pass_walls_s": walls, "setup_samples_s": setup_s,
             "error_rate": failed / attempted}
    return values, extra


def per_layer(tracer, inputs, outs, untraced_wall, traced_wall):
    values = {}
    for name in LAYER_TIMES:
        if name in tracer.present:
            values[name + "_s"] = tracer.self_s[name]
    for name in LAYER_CALLS:
        if name in tracer.present:
            values[name + "_calls"] = tracer.calls[name]
    for key, *_ in COUNTS:
        if tracer.count(key) is not None:
            values[key] = tracer.count(key)
    hits = [o for req, o in zip(inputs.requests, outs)
            if req.kind == "compute" and CACHE_HIT_MARK in o.stderr]
    values["cli.request_self_s"] = tracer.self_s[REQUEST_SPAN]
    values["cli.cache_hits"] = len(hits)
    values["cli.cache_misses"] = (sum(1 for r in inputs.requests if r.kind == "compute")
                                  - len(hits)) if inputs.uses_cache else 0
    values["cli.cache_hit_s"] = sum(o.seconds for o in hits)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small requests per workload (self-test)")
    ap.add_argument("--golden", default=GOLDEN, help="golden digest file")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and print it (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        khbn, table, inputs = setup(args.workload, args.seed, args.tiny)
        golden = load_golden(args.golden)
        first_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
    except (SetupError, ImportError, OSError, ValueError) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 2

    # A user's cache directory must not turn computed requests into reads.
    cache_env = os.environ.pop("KHBN_CACHE_DIR", None)
    os.makedirs(OUT, exist_ok=True)

    jones = {}

    def jones_of_entry(name):
        if name not in jones:
            D = khbn.linkdiag.parse_pd(table[name][0])
            jones[name] = dict(tuple(p) for p in khbn.linkdiag.kauffman_jones(D).to_pairs())
        return jones[name]

    checker = Checker(golden, jones_of_entry)
    client = Client(khbn.cli.main)
    failed = attempted = 0
    problems_seen = []
    # Only the seconds of past passes are kept, so peak_rss_mb does not grow
    # with the number of passes that fit in the run.
    walls, seconds_all = [], []
    speed_before = machine_speed_ms()

    def do_pass(tracer):
        nonlocal failed, attempted
        wall, outs = run_pass(inputs, client, tracer, len(walls))
        problems = checker.check_pass(inputs.requests, outs)
        attempted += len(outs)
        failed += len(problems)
        for idx, why in sorted(problems.items())[:5]:
            problems_seen.append(f"{inputs.requests[idx].key}: {'; '.join(why)}")
        walls.append(wall)
        seconds_all.append([o.seconds for o in outs])
        return wall, outs

    if args.trace:
        # Untraced passes on both sides of the traced one, so that a steady
        # drift in the machine's speed cancels out of the overhead.
        before, _ = do_pass(None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, outs = do_pass(tracer)
        finally:
            tracer.uninstall()
        after, _ = do_pass(None)
        metrics = per_layer(tracer, inputs, outs, (before + after) / 2, traced_wall)
        tracer.write_spans(os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.tsv"))
        extra = {"spans": len(tracer.spans),
                 "absent": sorted(set(LAYER_TIMES) - tracer.present)}
    else:
        t_measure = time.perf_counter()
        while True:
            wall, _ = do_pass(None)
            if time.perf_counter() - t_measure + wall > args.seconds:
                break
        metrics, extra = end_to_end(walls, seconds_all, inputs,
                                    setup_samples(args, first_setup),
                                    failed, attempted)

    env = environment(args, khbn, inputs, cache_env)
    env["machine_loop_ms"] = [speed_before, machine_speed_ms()]
    for line in problems_seen:
        print(f"FAILED {line}", file=sys.stderr)
    per_request = {f"{i}:{req.key}": [seconds[i] for seconds in seconds_all]
                   for i, req in enumerate(inputs.requests)}
    record = {"env": env, "extra": extra, "problems": problems_seen,
              "metrics": metrics, "request_s": per_request}
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env, "extra": extra}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
