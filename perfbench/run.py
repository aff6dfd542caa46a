#!/usr/bin/env python3
"""smtrace benchmark: time from SMT-LIB2 text to checked answers.

    python3 perfbench/run.py --workload sweep-lazy --seed 0 --seconds 20 --trace 0

Each instance of the workload goes through the public pipeline: parse_smt2,
boolean_abstract, to_cnf, eager_encode (eager mode only), compile, then the
queries count, weighted_count and enumerate_models (capped).  A pass runs
every instance once; passes repeat while another fits in ``--seconds``.
Every answer is checked against references that do not come from the
compiler (see inputs.py).  An op is one (instance, operation) pair; it fails
if any of its runs raises, hits its time cap or disagrees with the
reference.  A run is correct if no op fails other than the known failures
in ``EXPECTED_FAILURES``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics (layers.py) and the ratio of traced to untraced
pass time gives the tracing overhead.  Spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import layers
from clock import PROBE_REF_S, SpeedClock
from spans import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

OP_CAP_S = 60.0  # per op; the slowest op at seed (real chain n=10) takes about 20 s
RUN_CAP_S = 150.0  # no op runs past this point of the timed section
SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # a percentile is reported with at least this many samples beyond it

# Known failures of the program at seed, as (instance, op, error type).  They
# count as failed ops but leave the run correct; any other failure does not.
# enumerate_models recurses once per variable and exceeds the interpreter's
# default recursion limit on the Boolean chain at n = 400.
EXPECTED_FAILURES = {("bool400", "enumerate", "RecursionError")}

E2E_METRICS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p95", "ms"),
    ("query_s", "s"),
    ("graph_edges", "count"),
    ("peak_rss_mb", "MB"),
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def import_smtrace():
    """Import smtrace afresh from the src/ directory of this checkout."""
    if not (SRC / "smtrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no smtrace sources under {SRC}; run from a checkout of the repository")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "smtrace" or m.startswith("smtrace.")]:
        del sys.modules[name]
    st = importlib.import_module("smtrace")
    if Path(st.__file__).resolve().parent != SRC / "smtrace":
        raise SystemExit(f"error: imported smtrace from {st.__file__}, not from {SRC}")
    return st


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all
    samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


# ---------------------------------------------------------------------------
# ops


def run_op(fn, deadline: float):
    """(value, (start, end), error) of fn() under the per-op and per-run time caps."""
    start = perf_counter()
    cap = min(OP_CAP_S, deadline - start)
    if cap <= 0:
        return None, (start, start), "time cap"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        err = "time cap"
    except Exception as exc:  # the op failed; the benchmark records it and goes on
        err = f"{type(exc).__name__}: {exc}"[:200]
    else:
        return value, (start, perf_counter()), None
    end = perf_counter()
    # The traceback kept the op's frames in reference cycles; free them now,
    # outside the timing, so they do not inflate the memory of later ops.
    gc.collect()
    return None, (start, end), err


def compile_text(st, text: str, mode: str):
    f = st.frontend.parse_smt2(text)
    prop, amap = st.abstraction.boolean_abstract(f)
    db = st.abstraction.to_cnf(prop)
    if mode == "eager":
        db = st.eager.eager_encode(db, amap)
    return st.compiler.compile(db, amap, st.compiler.CompileConfig(mode=mode))


def check(inst, op: str, value) -> bool:
    """Is ``value`` the right answer of ``op`` on ``inst``?"""
    if op == "compile":
        return value == inst.atoms
    if op == "count":
        return value == inst.count
    if op == "wcount":
        return value == inst.wcount
    full = list(range(1, inst.atoms + 1))
    masks = set()
    for model in value:
        if sorted(model) != full:
            return False
        if inst.chain is not None and not inputs.bool_chain_model_ok(model, inst.chain):
            return False
        masks.add(inputs.model_mask(model))
    if len(masks) != len(value) or len(value) != min(inputs.ENUM_CAP, inst.count):
        return False
    return inst.models is None or masks <= inst.models


class Tally:
    """The ops of a run and the errors of those that failed.

    An op is one (instance, operation) pair.  It fails if any of its runs,
    in any pass or repetition, failed; so ``attempted`` and ``failed`` do not
    depend on how many passes or repetitions fitted in the run.
    """

    def __init__(self) -> None:
        self.ops: set[tuple[str, str]] = set()
        self.failures: dict[tuple[str, str], set[str]] = {}  # op -> its errors

    def add(self, inst, op: str, value, err: str | None) -> None:
        key = (inst.name, op)
        self.ops.add(key)
        if err is None and not check(inst, op, value):
            err = "wrong answer"
        if err is not None:
            self.failures.setdefault(key, set()).add(err)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expected(self, key: tuple[str, str]) -> bool:
        return all((*key, err.split(":")[0]) in EXPECTED_FAILURES for err in self.failures[key])

    @property
    def correct(self) -> bool:
        return all(self.expected(key) for key in self.failures)


@dataclass
class Pass:
    """Wall-clock intervals of one pass's ops; scaled to durations after the run.

    Intervals are stored flat, as start, end, start, end, ..., so that a long
    run's bookkeeping stays small next to the program's own memory.
    ``compiles`` holds every compile, failed ones too, so that an op that
    fails cannot shorten a time.  ``queries`` holds the repetitions of each
    (instance, query) in turn, and ``repeats`` how many there were.
    """

    traced: bool
    compiles: array = field(default_factory=lambda: array("d"))
    queries: array = field(default_factory=lambda: array("d"))
    repeats: array = field(default_factory=lambda: array("B"))  # per (instance, query)
    edges: int = 0
    trace: tuple | None = None  # (spans, counts, maxes) of a traced pass


def run_pass(st, instances, weights, deadline, tally: Tally, tracer=None) -> Pass:
    """Run every instance once, checking each answer outside its op's timing."""
    p = Pass(traced=tracer is not None)
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.name
        graph, interval, err = run_op(lambda: compile_text(st, inst.text, inst.mode), deadline)
        tally.add(inst, "compile", None if graph is None else graph.num_atom_vars, err)
        p.compiles.extend(interval)
        if err is not None:
            for op in ("count", "wcount", "enumerate"):
                tally.add(inst, op, None, "not compiled")
            continue
        p.edges += graph.edge_count
        queries = (
            ("count", lambda: st.ddnnf.count(graph)),
            ("wcount", lambda: st.ddnnf.weighted_count(graph, weights[inst.name])),
            ("enumerate", lambda: st.ddnnf.enumerate_models(graph, cap=inputs.ENUM_CAP)),
        )
        for op, fn in queries:
            spent = 0.0
            for n in range(1, inputs.QUERY_REPEATS + 1):
                value, interval, err = run_op(fn, deadline)
                tally.add(inst, op, value, err)
                p.queries.extend(interval)
                del value
                spent += interval[1] - interval[0]
                if spent >= inputs.QUERY_BUDGET_S:
                    break
            p.repeats.append(n)
        del graph
    return p


def make_weights(st, atoms: int):
    w = st.ddnnf.WeightMap()
    for v in range(1, atoms + 1):
        w.set(v, True, inputs.weight(v, True))
        w.set(v, False, inputs.weight(v, False))
    return w


# ---------------------------------------------------------------------------
# the run


def setup(workload: str, seed: int):
    """Import smtrace, render the inputs and load their references."""
    st = import_smtrace()
    instances = inputs.build(st, workload, seed)
    weights = {inst.name: make_weights(st, inst.atoms) for inst in instances}
    return st, instances, weights


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock: SpeedClock) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        # drop the previous set-up first, so that one copy is alive at a time
        st = instances = weights = None
        gc.collect()
        start = perf_counter()
        try:
            st, instances, weights = setup(args.workload, args.seed)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setups.append((start, perf_counter()))
    gc.collect()

    tracer = Tracer() if args.trace else None
    passes: list[Pass] = []
    tally = Tally()
    start = perf_counter()
    deadline = start + RUN_CAP_S
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            layers.install(tracer, st)
        try:
            p = run_pass(st, instances, weights, deadline, tally, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p.trace = tracer.take()
        passes.append(p)
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        another_fits = elapsed * (len(passes) + 1) / len(passes) <= args.seconds
        if enough and (not another_fits or perf_counter() > deadline):
            break
    clock.stop()

    if tracer is None:
        values, units, notes = end_to_end(clock, setups, passes)
    else:
        values, units, notes = per_layer(clock, passes)
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl", [p.trace[0] for p in passes if p.traced])

    took = [t for _, _, t in clock.probes]
    probes = statistics.quantiles(took, n=4) if len(took) > 1 else took * 3
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  instances {len(instances)}")
    print(
        f"  speed probe {len(took)} samples, quartiles "
        + " ".join(f"{q * 1e3:.3f}" for q in probes)
        + f" ms; times are scaled to {PROBE_REF_S * 1e3:.3f} ms"
    )
    for name, value in values.items():
        print(f"  {name:26} {value:>16.6g} {units[name]:6} {notes.get(name, '')}")
    rate = tally.failed / tally.attempted
    print(f"  {'error_rate':26} {rate:>16.6g} {'ratio':6} {tally.failed} failed of {tally.attempted} ops")
    for key, errs in sorted(tally.failures.items()):
        known = " (expected)" if tally.expected(key) else ""
        print(f"  failed{known}: {' '.join(key)}: {'; '.join(sorted(errs))}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
            }
        )
    )
    return 0


def _scaled(clock: SpeedClock, flat) -> list[float]:
    return [clock.scaled(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def query_s(clock: SpeedClock, p: Pass) -> float:
    times = _scaled(clock, p.queries)
    total, at = 0.0, 0
    for n in p.repeats:
        total += statistics.median(times[at : at + n])
        at += n
    return total


def run_s(clock: SpeedClock, p: Pass) -> float:
    return sum(_scaled(clock, p.compiles)) + query_s(clock, p)


def end_to_end(clock: SpeedClock, setups, passes):
    """(values, units, notes) of the end-to-end metrics of an untraced run."""
    samples = [[t * 1000.0 for t in _scaled(clock, p.compiles)] for p in passes]
    values = {
        "setup_s": statistics.median(clock.scaled(*iv) for iv in setups),
        "run_s": statistics.median(run_s(clock, p) for p in passes),
        "compile_ms_p50": statistics.median(percentile(ms, 0.50) for ms in samples),
        "compile_ms_p95": statistics.median(percentile(ms, 0.95) for ms in samples),
        "query_s": statistics.median(query_s(clock, p) for p in passes),
        "graph_edges": statistics.median(p.edges for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_pass = len(samples[0])
    tail = beyond(per_pass, 0.95)
    wall = statistics.median(sum(p.compiles[1::2]) - sum(p.compiles[::2]) for p in passes)
    notes = {
        "run_s": f"median of {len(passes)} passes",
        "compile_ms_p50": f"compile total {wall:.4g} s wall before scaling",
        "compile_ms_p95": f"{per_pass} samples a pass, {tail} beyond p95"
        + ("" if tail >= TAIL_SAMPLES else f" (fewer than {TAIL_SAMPLES})"),
    }
    return values, dict(E2E_METRICS), notes


def per_layer(clock: SpeedClock, passes):
    """(values, units, notes) of the per-layer metrics of a traced run."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layers.metrics(*p.trace, dur=clock.scaled) for p in traced]
    values = {
        name: statistics.median(m[name] for m in per_pass)
        for name, _ in layers.METRICS
        if name != "trace.overhead"
    }
    untraced = statistics.median(run_s(clock, p) for p in plain)
    with_trace = statistics.median(run_s(clock, p) for p in traced)
    values["trace.overhead"] = with_trace / untraced if untraced else 0.0
    notes = {"trace.overhead": f"traced / untraced run_s, {len(traced)} and {len(plain)} passes"}
    return values, dict(layers.METRICS), notes


if __name__ == "__main__":
    sys.exit(main())
