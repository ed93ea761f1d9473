"""stabwalls benchmark: whole CLI queries, in-process, one at a time.

    python3 bench/run.py --workload walls-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  Queries go through the public entry point
`stabwalls.cli.main(argv)` in a closed loop from this one process, with no
extra threads.  A run repeats whole rounds of its workload (see
workloads.py) until `--seconds` have passed, checks every answer outside
the timed region (see checks.py), and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The line
before it is a report: seed, rounds, sample counts and failing queries.

A query is stopped at DEADLINE_S by an in-process interval timer; it counts
as failed and is charged the deadline, as is a query whose answer fails its
check.  A query that passes in under REPEAT_BELOW_S runs REPEATS times back
to back; its latency is the median of those executions.  `--trace 1` runs
each query of the same rounds untraced and then traced, and reports
per-layer metrics instead (see spans.py), including the tracing overhead.
`--workload all` runs each workload in its own child process, one after the
other.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEADLINE_S = 10.0  # the feasibility frontier's budget per query
REPEATS, REPEAT_BELOW_S = 3, 0.1  # a query under 0.1 s runs 3 times; its latency is the median
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import stabwalls.cli as c; "
    "t1 = time.perf_counter(); c.build_parser(); print(t1 - t0)"
)


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so no handler inside
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_query(cli, argv):
    """One untimed call for the self-test: the parsed answer."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}: {buf.getvalue()}")
    return json.loads(buf.getvalue())


def timed_query(cli, argv, recorder=None, qid=0):
    """Run one query under the deadline: (elapsed_s, stdout, failure reason)."""
    buf = io.StringIO()
    reason = None
    if recorder is not None:
        recorder.begin_query(qid)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if rc != 0:
            reason = f"exit {rc}: {buf.getvalue().strip()[:200]}"
    except DeadlineExceeded:
        elapsed = time.perf_counter() - t0
        reason = f"deadline {DEADLINE_S:g} s passed"
    except SystemExit as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        reason = f"argument error (exit {exc.code})"
    except Exception as exc:  # the program's own bug: record it and go on
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        reason = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if recorder is not None:
        recorder.end_query(t0 + elapsed)
    return elapsed, buf.getvalue(), reason


class SetupSampler:
    """Fresh interpreters that import stabwalls.cli and build its parser.
    Samples are taken between queries all through a run, so their median
    spans the machine's slow and fast spells."""

    EVERY = 8  # one sample before every eighth query

    def __init__(self):
        self.walls, self.imports = [], []

    def sample(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        self.imports.append(float(proc.stdout))


class Round:
    def __init__(self):
        self.elapsed = []  # per query, seconds (median of its executions)
        self.failed = []  # per query, reason or None
        self.samples = []  # per execution, seconds; a failed query adds the deadline


def run_round(cli, queries, check_cache, setup, recorder=None, qid_base=0):
    """One round.  With a recorder each query runs untraced and then traced,
    back to back, so the overhead estimate sees the same machine state.
    Returns the untraced round and the traced one (empty without recorder)."""
    plain, traced = Round(), Round()
    for i, q in enumerate(queries):
        if i % setup.EVERY == 0:
            setup.sample()
        _run_one(cli, q, i, check_cache, plain, REPEATS)
        if recorder is not None:
            recorder.install()
            try:
                _run_one(cli, q, i, check_cache, traced, 1, recorder, qid_base + i)
            finally:
                recorder.uninstall()
    return plain, traced


def _run_one(cli, q, i, check_cache, rnd, repeats, recorder=None, qid=0):
    """A query runs up to `repeats` times back to back while it passes and
    stays under REPEAT_BELOW_S; any failing execution fails the query."""
    times = []
    for _ in range(repeats):
        gc.collect()
        elapsed, stdout, reason = timed_query(cli, q.argv, recorder, qid)
        if reason is None:
            reason = _check(q, i, stdout, check_cache)
        times.append(elapsed)
        if reason or elapsed >= REPEAT_BELOW_S:
            break
    rnd.elapsed.append(statistics.median(times))
    rnd.failed.append(reason)
    rnd.samples += [DEADLINE_S] if reason else times


def _check(q, i, stdout, cache):
    """Check an answer; an answer identical to one already checked in this
    run (same query, same bytes, same SVG) gets the same verdict."""
    svg = None
    if q.svg:
        with open(q.svg) as fh:
            svg = fh.read()
    key = (i, stdout, svg)
    if key not in cache:
        try:
            cache[key] = q.check(json.loads(stdout))
        except Exception as exc:  # a malformed answer fails its query
            cache[key] = f"unreadable answer: {type(exc).__name__}: {exc}"
    return cache[key]


def run_rounds(cli, queries, seconds, cache, setup, recorder=None):
    """Whole rounds until `seconds` have passed: (untraced rounds, traced
    rounds, span index range of each traced round)."""
    plain, traced, marks = [], [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        first = len(recorder.start) if recorder else 0
        p, t = run_round(cli, queries, cache, setup, recorder, len(plain) * len(queries))
        plain.append(p)
        if recorder:
            traced.append(t)
            marks.append((first, len(recorder.start)))
    return plain, traced, marks


def charged(rnd):
    return [DEADLINE_S if f else e for e, f in zip(rnd.elapsed, rnd.failed)]


def frontier(queries, rounds):
    """Largest l such that every n = 1 ladder query with l' <= l passed in
    every round (0 when the first one failed)."""
    best = 0
    for i, q in sorted((x for x in enumerate(queries) if x[1].ladder_l), key=lambda x: x[1].ladder_l):
        if any(r.failed[i] for r in rounds):
            break
        best = q.ladder_l
    return best


def end_to_end(queries, rounds, setup):
    per_round_qps = [sum(1 for f in r.failed if not f) / sum(charged(r)) for r in rounds]
    latencies = [t for r in rounds for t in r.samples]
    return {
        "setup_s": {"value": statistics.median(setup.walls), "unit": "s"},
        "queries_per_s": {"value": statistics.median(per_round_qps), "unit": "1/s"},
        "query_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
        "frontier_l": {"value": frontier(queries, rounds), "unit": "l"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(queries, plain, traced, recorder, marks, setup):
    """Medians over traced rounds of each layer metric, plus the overhead
    of tracing on the queries that passed in every round."""
    rows = []
    consistent = True
    for r, (first, end) in zip(traced, marks):
        stats, per_query, (enum_walls, enum_calls) = recorder.reduce(first, end)
        for j, self_sum in per_query.items():
            if self_sum > r.elapsed[j % len(queries)] + 1e-6:
                consistent = False
        row = {
            "cli.import_s": (statistics.median(setup.imports), "s"),
            "cli.main.self_ms": (stats["cli.main"]["self_s"] * 1000, "ms"),
            "walls.hit_ratio": (enum_walls / enum_calls if enum_calls else 0.0, "ratio"),
            "walls.hit_ratio.base": (enum_calls, "count"),
            "trace.spans": (end - first, "count"),
        }
        for name in ("walls.enumerate_walls_on_line", "walls.wall_between", "pell.solve_generator",
                     "pell.iterate", "pell.slope_endpoints", "surd.squarefree_decompose",
                     "lattice.pairing", "jsonio.wall_record"):
            row[f"{name}.calls"] = (stats[name]["calls"], "count")
        row["walls.enumerate_walls_on_line.self_s"] = (stats["walls.enumerate_walls_on_line"]["self_s"], "s")
        for name in ("walls.wall_between", "walls.codim0_walls", "walls.is_codim0", "walls.classify_point",
                     "pell.solve_generator", "pell.iterate", "pell.interval_index", "pell.u_vectors",
                     "surd.squarefree_decompose", "fmgroup.act_on_vector", "fmgroup.mobius",
                     "oracle.brute_walls", "jsonio.wall_record", "svg.render"):
            row[f"{name}.s"] = (stats[name]["s"], "s")
        rows.append(row)
    metrics = {k: {"value": statistics.median(r[k][0] for r in rows), "unit": rows[0][k][1]} for k in rows[0]}
    ok = [i for i in range(len(queries)) if not any(r.failed[i] for r in plain + traced)]
    base = sum(statistics.median(r.elapsed[i] for r in plain) for i in ok)
    with_trace = sum(statistics.median(r.elapsed[i] for r in traced) for i in ok)
    metrics["trace.overhead_pct"] = {"value": (with_trace / base - 1) * 100 if base else 0.0, "unit": "%"}
    return metrics, consistent


def run_workload(args):
    try:
        sys.path.insert(0, SRC)
        from stabwalls import cli
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    import checks
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    queries = workloads.build(args.workload, args.seed, OUT_DIR)
    try:
        missed = checks.self_test(lambda argv: run_query(cli, argv))
    except Exception as exc:  # the program failed on a self-test input
        missed = [f"self-test could not run: {type(exc).__name__}: {exc}"]
    setup = SetupSampler()
    signal.signal(signal.SIGALRM, _on_alarm)
    cache = {}
    if args.trace:
        import spans

        recorder = spans.Recorder()
        plain, traced, marks = run_rounds(cli, queries, args.seconds, cache, setup, recorder)
        metrics, consistent = per_layer(queries, plain, traced, recorder, marks, setup)
        rounds = plain + traced
        labels = {r * len(queries) + i: q.qid for r in range(len(traced)) for i, q in enumerate(queries)}
        recorder.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz"),
                      json.dumps({"workload": args.workload, "seed": args.seed, "queries": labels}))
    else:
        rounds, _, _ = run_rounds(cli, queries, args.seconds, cache, setup)
        metrics, consistent = end_to_end(queries, rounds, setup), True
    attempted = sum(len(r.failed) for r in rounds)
    failing = sorted({(q.qid, r.failed[i]) for r in rounds for i, q in enumerate(queries) if r.failed[i]})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "queries_per_round": len(queries),
        "latency_samples": sum(len(r.samples) for r in rounds),
        "setup_samples": len(setup.walls),
        "query_median_elapsed_ms": {q.qid: round(statistics.median(r.elapsed[i] for r in rounds) * 1000, 2)
                            for i, q in enumerate(queries)},
        "failing": [{"query": q, "reason": why} for q, why in failing],
        "self_test_missed": missed,
        "self_times_within_elapsed": consistent,
    }
    print(json.dumps(report))
    result = {
        "correct": not missed and consistent,
        "attempted": attempted,
        "failed": sum(1 for r in rounds for f in r.failed if f),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in ("walls-ladder", "pell-orbit", "sections"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        report, result = proc.stdout.strip().splitlines()[-2:]
        print(report)
        res = json.loads(result)
        results[name] = res
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}  {cells}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("walls-ladder", "pell-orbit", "sections", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
