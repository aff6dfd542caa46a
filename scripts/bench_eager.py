#!/usr/bin/env python3
"""Time the eager encoding over the acceptance sweep window.

For instance seeds start..start+instances-1 of both random generators, runs
``boolean_abstract`` and ``to_cnf`` once, then times ``eager_encode`` alone.
A first, untimed pass counts the ``check_feasible`` calls the enumerator
makes and the cores it blocks; the timed passes run without that counter and
the median pass is reported.  Times are scaled to a reference interpreter
speed by the benchmark's clock (``perfbench/clock.py``, imported, not
changed), so runs made at different times can be compared; the JSON says so
as ``"clock": "scaled"``.  Results go to a JSON file together with the
git SHA of the checkout that holds the imported ``smtrace`` and the Python
version.

    PYTHONPATH=src python3 scripts/bench_eager.py --start 0 --instances 200 --repeats 3

To measure another checkout, point PYTHONPATH at its src/ directory.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import smtrace as st
from smtrace import eager

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from clock import SpeedClock


def git_sha(path: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(path), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        dirty = subprocess.run(
            ["git", "-C", str(path), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def instances(start: int, count: int):
    out = []
    for s in range(start, start + count):
        for name, f in ((f"f{s}", st.random_formula(s)), (f"n{s}", st.random_nested_formula(s))):
            prop, amap = st.boolean_abstract(f)
            out.append((name, st.to_cnf(prop), amap))
    return out


def counted_pass(work):
    """(check_feasible calls, cores) per instance, from one untimed pass."""
    calls = 0
    original = eager.check_feasible

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    eager.check_feasible = counting
    try:
        per = {}
        for name, db, amap in work:
            calls = 0
            encoded = eager.eager_encode(db, amap)
            per[name] = (calls, len(encoded.clauses) - len(db.clauses))
    finally:
        eager.check_feasible = original
    return per


def timed_pass(work) -> dict[str, tuple[float, float]]:
    """The wall-clock interval of each instance's encoding, to be scaled
    once the clock has probed past them."""
    per = {}
    for name, db, amap in work:
        t0 = time.perf_counter()
        eager.eager_encode(db, amap)
        per[name] = (t0, time.perf_counter())
    return per


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_eager.json")
    args = ap.parse_args()

    work = instances(args.start, args.instances)
    counts = counted_pass(work)
    clock = SpeedClock()
    clock.start()
    try:
        intervals = [timed_pass(work) for _ in range(max(1, args.repeats))]
    finally:
        clock.stop()
    passes = [{name: clock.scaled(*iv) for name, iv in p.items()} for p in intervals]
    totals = [sum(p.values()) for p in passes]
    median_pass = passes[totals.index(statistics.median_low(totals))]
    slowest = max(median_pass, key=median_pass.get)

    result = {
        "git_sha": git_sha(Path(st.__file__).resolve().parent),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "window": {"start": args.start, "instances": len(work)},
        "repeats": len(passes),
        "clock": "scaled",
        "encode_s_median": statistics.median(totals),
        "encode_s_passes": totals,
        "feasibility_calls": sum(c for c, _ in counts.values()),
        "cores": sum(n for _, n in counts.values()),
        "slowest": {"name": slowest, "encode_s": median_pass[slowest], "feasibility_calls": counts[slowest][0]},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for key in ("git_sha", "python", "encode_s_median", "feasibility_calls", "cores"):
        print(f"{key:18} {result[key]}")
    print(f"{'slowest':18} {slowest} {median_pass[slowest]:.3f} s, {counts[slowest][0]} calls")


if __name__ == "__main__":
    main()
