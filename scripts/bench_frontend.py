#!/usr/bin/env python3
"""Time the pipeline from SMT-LIB2 text to CNF.

Times ``parse_smt2``, and ``boolean_abstract`` plus ``to_cnf``, on the
benchmark's texts (``perfbench/inputs.py``, imported, not changed): the 400
sweep texts (both random generators at instance seeds start..start+199,
rendered as the sweep workloads render them) and the real and Boolean chains
at the workloads' sizes.  Each pass converts every text once; for each group
the median pass (by its total) is reported, with the instance of median
text-to-CNF time in that pass and the share of each stage there.  Times are
scaled to a reference interpreter speed by the benchmark's clock
(``perfbench/clock.py``), so runs made at different times can be compared;
the JSON says so as ``"clock": "scaled"``.

The record goes under ``runs[<label>]`` of the output file, with the git SHA
of the checkout that holds the imported ``smtrace``; records of other labels
already in the file are kept, so two checkouts can be measured in turn:

    PYTHONPATH=../parent/src python3 scripts/bench_frontend.py --label parent
    PYTHONPATH=src python3 scripts/bench_frontend.py --label change
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import smtrace as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from clock import SpeedClock
from inputs import BOOL_CHAIN_SIZES, REAL_CHAIN_SIZES, bool_chain_text, real_chain_text, render, sweep_formulas

from bench_eager import git_sha


def texts(start: int, instances: int) -> dict[str, list[tuple[str, str]]]:
    """(name, text) per group."""
    return {
        "sweep": [(name, render(st, f)) for name, f in sweep_formulas(st, start, instances)],
        "real-chain": [(f"real{n}", real_chain_text(n)) for n in REAL_CHAIN_SIZES],
        "bool-chain": [(f"bool{n}", bool_chain_text(n)) for n in BOOL_CHAIN_SIZES],
    }


def timed_pass(work):
    """Per text, the wall-clock intervals of its parse and of its
    abstraction and CNF conversion, to be scaled once the clock has probed
    past them."""
    out = []
    for _, text in work:
        t0 = time.perf_counter()
        f = st.parse_smt2(text)
        t1 = time.perf_counter()
        prop, _ = st.boolean_abstract(f)
        st.to_cnf(prop)
        out.append((t0, t1, time.perf_counter()))
    return out


def summary(work, passes) -> dict:
    """The median pass of one group, and the median instance in it."""
    totals = [sum(p + c for p, c in ps) for ps in passes]
    median = passes[totals.index(statistics.median_low(totals))]
    order = sorted(range(len(work)), key=lambda i: sum(median[i]))
    mid = order[(len(order) - 1) // 2]
    parse, cnf = median[mid]
    return {
        "instances": len(work),
        "parse_s": sum(p for p, _ in median),
        "cnf_s": sum(c for _, c in median),
        "text_to_cnf_s": statistics.median_low(totals),
        "text_to_cnf_s_passes": totals,
        "median_instance": {
            "name": work[mid][0],
            "parse_ms": parse * 1e3,
            "cnf_ms": cnf * 1e3,
            "parse_share": parse / (parse + cnf),
            "cnf_share": cnf / (parse + cnf),
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--instances", type=int, default=200, help="instance seeds per generator")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--label", default="run")
    ap.add_argument("--out", default="BENCH_frontend.json")
    args = ap.parse_args()

    groups = texts(args.start, args.instances)
    for work in groups.values():  # warm the caches and check every text converts
        timed_pass(work)
    clock = SpeedClock()
    clock.start()
    try:
        intervals = {g: [timed_pass(work) for _ in range(max(1, args.repeats))] for g, work in groups.items()}
    finally:
        clock.stop()
    record = {
        "git_sha": git_sha(Path(st.__file__).resolve().parent),
        "window": {"start": args.start, "instances": len(groups["sweep"])},
        "repeats": max(1, args.repeats),
    }
    for g, work in groups.items():
        passes = [[(clock.scaled(t0, t1), clock.scaled(t1, t2)) for t0, t1, t2 in p] for p in intervals[g]]
        record[g] = summary(work, passes)

    out = Path(args.out)
    result = json.loads(out.read_text()) if out.exists() else {}
    result.update({"python": platform.python_version(), "machine": platform.machine(), "clock": "scaled"})
    result.setdefault("runs", {})[args.label] = record
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"{args.label}: {record['git_sha']}")
    for g in groups:
        r = record[g]
        mid = r["median_instance"]
        print(
            f"  {g:11} parse {r['parse_s'] * 1e3:8.2f} ms  cnf {r['cnf_s'] * 1e3:7.2f} ms  "
            f"median instance {mid['name']} {mid['parse_ms'] + mid['cnf_ms']:.3f} ms "
            f"({mid['parse_share']:.0%} parse)"
        )


if __name__ == "__main__":
    main()
