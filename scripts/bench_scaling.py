#!/usr/bin/env python3
"""Time compile, count and capped enumeration on the Boolean chain, and
compile on the real chain, as they grow.

For each n, builds the chain ``A_i or A_{i+1}`` (i = 1..n-1) once, from
the benchmark's text (``perfbench/inputs.py``, imported, not changed), then
compiles it in lazy mode with components on and off.  A first, untimed
compile counts the ``split_components`` calls and sums the time spent in
them (``split_s``) and in ``GraphBuilder.finish`` (``finish_s``), which
turns the builder's records into the graph's nodes; the timed repeats
compile, ``count`` the fresh graph
(the first query, so it builds the scopes and runs the totality gate) and
then ``enumerate_models(cap=1000)``, without that counter.  The median
repeat is reported with the graph's decisions, nodes and edges, and with
the growth of the process's peak RSS across the first repeat's ``count``
(``count_rss_growth_mb``; a high-water mark, so it reads 0 while the count
stays under an earlier peak).  A run whose compile takes longer than
``--budget`` seconds is recorded as a failure and the script goes on.
Without components the chain's search grows about 3x for every 4 more
variables, and its component cache with it, so after the first size whose
components-off compile fails, the larger sizes are recorded as skipped
without compiling.

For each n of ``--real-sizes``, the real chain ``x_i <= x_{i+1} or x_i >= 5``
(i = 1..n-1), also the benchmark's text, is compiled in lazy mode with the default settings, under the
same budget; the median repeat is reported with the graph's decisions,
theory checks, the theory queries decided at a stored audited point
(``theory_witness_hits``), the most rows one check started from
(``theory_rows_max``) and edges.  A row whose n is twice the previous
size's n, for the same chain and settings, also reports
``compile_growth``: its median compile
time over that row's, the growth per doubling.  Every time is scaled to a
reference interpreter speed by the benchmark's clock (``perfbench/clock.py``,
imported, not changed), so sizes timed at different moments can be
compared; the JSON says so as ``"clock": "scaled"``.  Results go to a JSON
file together with the git SHA of the checkout that holds the imported
``smtrace`` and the Python version.

    PYTHONPATH=src python3 scripts/bench_scaling.py --sizes 100 200 400 800 1600 3200 --real-sizes 6 8 10 12 24 48 96 192 384 768 --repeats 3 --budget 10

To measure another checkout, point PYTHONPATH at its src/ directory.
"""

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import smtrace as st
from smtrace import compiler, ddnnf

from bench_eager import git_sha

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from clock import SpeedClock
from inputs import bool_chain_text, real_chain_text  # the benchmark's chains

CAP = 1000


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget


def capped(fn, budget: float):
    """fn(), interrupted by OverBudget after ``budget`` seconds."""
    signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn()
    except OverBudget:
        gc.enable()  # the alarm may have cut short a clock probe, which runs with gc off
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def cnf(text: str):
    prop, amap = st.boolean_abstract(st.parse_smt2(text))
    return st.to_cnf(prop), amap


def split_and_finish(db, amap, cfg, clock: SpeedClock) -> tuple[int, float, float]:
    """(calls, scaled seconds) of ``split_components`` and the scaled
    seconds of ``GraphBuilder.finish``, in one compile."""
    spent = {"split": [0, 0.0], "finish": [0, 0.0]}

    def timed(name, original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[name][0] += 1
                spent[name][1] += clock.scaled(t0, time.perf_counter())

        return wrapper

    split, finish = compiler.split_components, ddnnf.GraphBuilder.finish
    compiler.split_components = timed("split", split)
    ddnnf.GraphBuilder.finish = timed("finish", finish)
    try:
        st.compile(db, amap, cfg)
    finally:
        compiler.split_components = split
        ddnnf.GraphBuilder.finish = finish
    return spent["split"][0], spent["split"][1], spent["finish"][1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(n: int, components: bool, repeats: int, budget: float, clock: SpeedClock) -> dict:
    db, amap = cnf(bool_chain_text(n))
    cfg = st.CompileConfig(components=components)
    row = {"n": n, "components": components}
    try:
        row["split_calls"], row["split_s"], row["finish_s"] = capped(
            lambda: split_and_finish(db, amap, cfg, clock), budget
        )
        runs = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            graph = capped(lambda: st.compile(db, amap, cfg), budget)
            rss0, t1 = peak_rss_mb(), time.perf_counter()
            st.count(graph)
            t2 = time.perf_counter()
            row.setdefault("count_rss_growth_mb", peak_rss_mb() - rss0)
            models = st.enumerate_models(graph, cap=CAP)
            runs.append((clock.scaled(t0, t1), clock.scaled(t1, t2), clock.scaled(t2, time.perf_counter())))
    except OverBudget:
        row["failure"] = f"compile took longer than {budget:g} s"
        return row
    row.update(
        compile_s_median=statistics.median(c for c, _, _ in runs),
        count_s_median=statistics.median(q for _, q, _ in runs),
        enumerate_s_median=statistics.median(e for _, _, e in runs),
        compile_s_runs=[c for c, _, _ in runs],
        count_s_runs=[q for _, q, _ in runs],
        enumerate_s_runs=[e for _, _, e in runs],
        models=len(models),
        decisions=graph.stats.decisions,
        nodes=graph.stats.nodes,
        edges=graph.stats.edges,
    )
    return row


def measure_real(n: int, repeats: int, budget: float, clock: SpeedClock) -> dict:
    db, amap = cnf(real_chain_text(n))
    row = {"n": n}
    runs = []
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            graph = capped(lambda: st.compile(db, amap), budget)
            runs.append(clock.scaled(t0, time.perf_counter()))
    except OverBudget:
        row["failure"] = f"compile took longer than {budget:g} s"
        return row
    stats = graph.stats
    row.update(
        compile_s_median=statistics.median(runs),
        compile_s_runs=runs,
        decisions=stats.decisions,
        theory_checks=stats.theory_checks,
        theory_witness_hits=stats.theory_witness_hits,
        theory_rows_max=stats.theory_rows_max,
        edges=stats.edges,
    )
    return row


def add_growth(rows: list[dict]) -> None:
    """Set ``compile_growth`` on each row whose n is twice the n of the
    previous size's row with the same settings, when both were measured."""
    previous = {}
    for row in rows:
        before, previous[row.get("components")] = previous.get(row.get("components")), row
        if before and row["n"] == 2 * before["n"] and "compile_s_median" in before and "compile_s_median" in row:
            row["compile_growth"] = row["compile_s_median"] / before["compile_s_median"]


def _growth(row: dict) -> str:
    return f"  growth {row['compile_growth']:.2f}x" if "compile_growth" in row else ""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800, 1600, 3200])
    ap.add_argument("--real-sizes", type=int, nargs="*", default=[6, 8, 10, 12, 24, 48, 96, 192, 384, 768])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--budget", type=float, default=10.0, help="seconds a compile may take")
    ap.add_argument("--out", default="BENCH_scaling.json")
    args = ap.parse_args()

    rows, off_failed_at = [], None
    clock = SpeedClock()
    clock.start()
    try:
        for n in args.sizes:
            rows.append(measure(n, True, args.repeats, args.budget, clock))
            if off_failed_at is not None and n > off_failed_at:
                rows.append({"n": n, "components": False, "skipped": f"components off failed at n = {off_failed_at}"})
                continue
            rows.append(measure(n, False, args.repeats, args.budget, clock))
            if "failure" in rows[-1]:
                off_failed_at = n
        real_rows = [measure_real(n, args.repeats, args.budget, clock) for n in args.real_sizes]
    finally:
        clock.stop()
    add_growth(rows)
    add_growth(real_rows)
    result = {
        "git_sha": git_sha(Path(st.__file__).resolve().parent),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "clock": "scaled",
        "cap": CAP,
        "repeats": max(1, args.repeats),
        "budget_s": args.budget,
        "runs": rows,
        "real_chain": real_rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"git_sha {result['git_sha']}  python {result['python']}")
    for row in rows:
        head = f"n={row['n']:<5} components={'on ' if row['components'] else 'off'}"
        if "failure" in row:
            print(f"{head} failed: {row['failure']}")
        elif "skipped" in row:
            print(f"{head} skipped: {row['skipped']}")
        else:
            print(
                f"{head} compile {row['compile_s_median']:.3f} s  count {row['count_s_median']:.4f} s"
                f" (+{row['count_rss_growth_mb']:.1f} MB peak RSS)  enumerate {row['enumerate_s_median']:.4f} s"
                f"  decisions {row['decisions']}  split calls {row['split_calls']}  split {row['split_s']:.3f} s"
                f"  finish {row['finish_s']:.4f} s"
                + _growth(row)
            )
    for row in real_rows:
        head = f"real chain n={row['n']:<3}"
        if "failure" in row:
            print(f"{head} failed: {row['failure']}")
        else:
            print(
                f"{head} compile {row['compile_s_median']:.3f} s  decisions {row['decisions']}"
                f"  theory checks {row['theory_checks']} (at most {row['theory_rows_max']} rows)"
                f"  witness hits {row['theory_witness_hits']}"
                f"  edges {row['edges']}" + _growth(row)
            )


if __name__ == "__main__":
    main()
