"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

The slowdown tests print the ratios they measure; ``-s`` shows them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import pytest

import inputs
import layers
import run
from clock import PROBE_REF_S, SpeedClock
from make_refs import oracle_ref
from spans import Tracer, child_calls, self_times, summarize, wall

st = run.import_smtrace()


def _span(name, start, end, parent):
    return (name, start, end, parent, "i0")


def _own(spans, dur=wall):
    return [own for _, own in self_times(spans, dur)]


def test_self_time_subtracts_children_at_each_level():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 7.0, 0),
    ]
    assert _own(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    s = summarize(spans)
    assert s["a"]["total"] == pytest.approx(10.0)
    assert s["a"]["self"] == pytest.approx(5.0)
    assert child_calls(spans, "d", "b") == 1 and child_calls(spans, "d", "a") == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 2.0, 6.0, 0),
        _span("c", 4.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert _own(spans)[0] == pytest.approx(2.0)


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        @staticmethod
        def inner():
            time.sleep(0.01)

        @staticmethod
        def outer():
            Owner.inner()

    tracer = Tracer()
    original = Owner.__dict__["inner"]
    tracer.patch(Owner, "inner", tracer.wrap("inner", Owner.inner))
    tracer.patch(Owner, "outer", tracer.wrap("outer", Owner.outer))
    Owner.outer()
    tracer.uninstall()
    spans, _, _ = tracer.take()
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0
    outer_self, inner_self = _own(spans)
    assert inner_self >= 0.01 and outer_self < inner_self
    assert Owner.__dict__["inner"] is original


def _two_probe_clock():
    clock = SpeedClock()
    # probes at [1.0, 1.3] and [2.0, 2.2], each with a warm-up before its
    # timed run; the timed runs took 0.1 s and 0.2 s
    clock.probes = [(1.0, 1.3, 0.1), (2.0, 2.2, 0.2)]
    return clock


def test_scaled_time_leaves_out_probes_and_weights_by_speed():
    clock = _two_probe_clock()
    # 0.5 s before the first probe at its speed, 0.7 s between the probes and
    # 0.3 s after the second at the speed of the second
    want = (0.5 / 0.1 + 0.7 / 0.2 + 0.3 / 0.2) * PROBE_REF_S
    assert clock.scaled(0.5, 2.5) == pytest.approx(want)
    assert clock.scaled(0.2, 0.7) == pytest.approx(0.5 / 0.1 * PROBE_REF_S)
    # an interval inside one stretch, after the last probe
    assert clock.scaled(3.0, 3.4) == pytest.approx(0.4 / 0.2 * PROBE_REF_S)


def test_scaled_self_time_subtracts_scaled_children():
    clock = _two_probe_clock()
    spans = [_span("a", 0.5, 2.5, -1), _span("b", 0.8, 1.5, 0)]
    (a_total, a_self), (b_total, b_self) = self_times(spans, clock.scaled)
    assert a_total == pytest.approx(clock.scaled(0.5, 2.5))
    assert b_self == b_total == pytest.approx(clock.scaled(0.8, 1.5))
    assert a_self == pytest.approx(clock.scaled(0.5, 0.8) + clock.scaled(1.5, 2.5))


def test_percentile_rule_and_sample_counts():
    samples = list(range(1, 401))
    assert run.percentile(samples, 0.50) == 200
    assert run.percentile(samples, 0.95) == 380
    assert run.beyond(400, 0.95) == 20 >= run.TAIL_SAMPLES
    assert run.beyond(3, 0.95) == 0
    assert run.percentile([7.0, 1.0, 3.0], 0.95) == 7.0
    assert run.percentile([5.0], 0.5) == 5.0


OPS = 4  # ops per instance: compile, count, wcount, enumerate


def _chain_instances(n=6, **changes):
    inst = inputs.Instance(
        name=f"bool{n}",
        text=inputs.bool_chain_text(n),
        mode="lazy",
        atoms=n,
        count=inputs.bool_chain_count(n),
        wcount=inputs.bool_chain_wcount(n),
        models=None,
        chain=n,
    )
    for key, value in changes.items():
        setattr(inst, key, value)
    return [inst], {inst.name: run.make_weights(st, n)}


def _run(instances, weights, deadline_s=60.0, passes=1):
    tally = run.Tally()
    for _ in range(passes):
        p = run.run_pass(st, instances, weights, time.perf_counter() + deadline_s, tally)
    return tally, p


def test_right_answers_pass():
    tally, p = _run(*_chain_instances())
    assert (tally.attempted, tally.failed, tally.correct) == (OPS, 0, True)
    assert list(p.repeats) == [inputs.QUERY_REPEATS] * 3


def test_op_counts_do_not_depend_on_passes_or_repeats(monkeypatch):
    tally, _ = _run(*_chain_instances(count=0), passes=3)
    assert (tally.attempted, tally.failed) == (OPS, 2)
    monkeypatch.setattr(inputs, "QUERY_BUDGET_S", 0.0)
    tally, p = _run(*_chain_instances(count=0))
    assert list(p.repeats) == [1, 1, 1]
    assert (tally.attempted, tally.failed) == (OPS, 2)


def test_wrong_answer_is_a_failed_op():
    instances, weights = _chain_instances(count=inputs.bool_chain_count(6) + 1)
    tally, _ = _run(instances, weights)
    # the count and the length of the enumeration both disagree
    assert tally.failures == {("bool6", "count"): {"wrong answer"}, ("bool6", "enumerate"): {"wrong answer"}}
    assert not tally.correct


def test_wrong_model_is_a_failed_op():
    tally, _ = _run(*_chain_instances(models=frozenset()))
    assert tally.failures == {("bool6", "enumerate"): {"wrong answer"}} and not tally.correct


def test_capped_op_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.05)

    def spin():
        end = time.perf_counter() + 2.0
        while time.perf_counter() < end:
            pass

    value, (start, end), err = run.run_op(spin, time.perf_counter() + 60.0)
    assert value is None and err == "time cap" and end - start < 1.0
    tally = run.Tally()
    [inst], _ = _chain_instances()
    tally.add(inst, "count", value, err)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_ops_past_the_run_deadline_fail():
    tally, _ = _run(*_chain_instances(), deadline_s=-1.0)
    assert tally.attempted == tally.failed == OPS and not tally.correct


def test_failed_compile_keeps_its_time_and_fails_its_queries(monkeypatch):
    def broken(st, text, mode):
        time.sleep(0.02)
        raise ValueError("broken")

    monkeypatch.setattr(run, "compile_text", broken)
    tally, p = _run(*_chain_instances())
    assert tally.attempted == tally.failed == OPS and not tally.correct
    assert len(p.compiles) == 2 and p.compiles[1] - p.compiles[0] >= 0.02
    assert len(p.queries) == 0 and p.edges == 0


def test_only_listed_failures_are_expected():
    [inst], _ = _chain_instances(400)
    tally = run.Tally()
    tally.add(inst, "enumerate", None, "RecursionError: maximum recursion depth exceeded")
    assert (tally.failed, tally.correct) == (1, True)
    tally.add(inst, "enumerate", None, "time cap")
    assert not tally.correct
    tally = run.Tally()
    tally.add(inst, "count", None, "RecursionError: maximum recursion depth exceeded")
    assert not tally.correct


def test_bool_chain_closed_forms_match_the_oracle():
    for n in (2, 3, 5, 9):
        f = st.parse_smt2(inputs.bool_chain_text(n))
        models = [inputs.model_mask(m) for m in st.brute_enumerate(f)]
        assert len(models) == inputs.bool_chain_count(n)
        assert inputs.weighted_sum(models, n) == inputs.bool_chain_wcount(n)


def test_rendered_text_keeps_oracle_counts():
    for seed in range(12):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            parsed = st.parse_smt2(inputs.render(st, f))
            assert len(parsed.table) == len(f.table)
            assert st.brute_counts(parsed) == st.brute_counts(f)


def test_weights_are_complementary():
    for v in range(1, 9):
        assert inputs.weight(v, True) + inputs.weight(v, False) == 1
        assert inputs.weight(v, False) > 0
    assert inputs.weighted_sum([0b11], 2) == Fraction(2, 5) * Fraction(3, 5)


def _oracle_instance(text, mode):
    ref = oracle_ref(st, text)
    return inputs._oracle_instance(mode, text, mode, ref), run.make_weights(st, ref["atoms"])


def test_traced_pass_reports_every_layer_and_restores_the_program():
    lazy, w_lazy = _oracle_instance(inputs.real_chain_text(4), "lazy")
    eager, w_eager = _oracle_instance(inputs.render(st, st.random_formula(3)), "eager")
    originals = (st.compiler.split_components, st.lra.check_feasible, st.lra.TheoryState.entails)
    tracer = Tracer()
    tally = run.Tally()
    layers.install(tracer, st)
    try:
        run.run_pass(st, [lazy, eager], {"lazy": w_lazy, "eager": w_eager}, time.perf_counter() + 60, tally, tracer)
    finally:
        tracer.uninstall()
    assert (st.compiler.split_components, st.lra.check_feasible, st.lra.TheoryState.entails) == originals
    assert tally.failed == 0
    spans, counts, maxes = tracer.take()
    m = layers.metrics(spans, counts, maxes)
    assert set(m) | {"trace.overhead"} == {name for name, _ in layers.METRICS}
    assert m["frontend.atoms"] == lazy.atoms + eager.atoms
    assert m["lra.check_calls"] >= m["eager.feasibility_calls"] > 0
    assert m["compiler.decisions"] > 0 and m["ddnnf.nodes"] > 0
    assert 0 < m["ddnnf.kept_ratio"] <= 1
    assert {s[4] for s in spans} == {"lazy", "eager"}


# ---------------------------------------------------------------------------
# scaling keeps a real slowdown of the program


def _twice(fn):
    """Every feasibility check done twice."""

    def slowed(table, lits):
        lits = list(lits)
        fn(table, lits)
        return fn(table, lits)

    return slowed


def _allocating(fn):
    """Every feasibility check first allocates 3000 lists, next to a large
    live heap: collections and cold caches in the program, which must not
    read as a slower machine."""
    heap = [(i, str(i)) for i in range(300_000)]

    def slowed(table, lits, heap=heap):
        junk = [[i] for i in range(3000)]
        del junk
        return fn(table, lits)

    return slowed


def slowdown_ratios(make_slowed, passes=16, size=30):
    """(unscaled, scaled) ratio of slowed to plain compile time.

    Plain and slowed passes over the first ``size`` sweep-lazy instances
    alternate, so that drifts of the machine's speed hit both alike; each
    side is the median over its passes.
    """
    instances = inputs.build(st, "sweep-lazy", 0)[:size]
    weights = {inst.name: run.make_weights(st, inst.atoms) for inst in instances}
    compiles = {False: [], True: []}
    clock = SpeedClock()
    clock.start()
    try:
        for k in range(2 * passes):
            slowed = k % 2 == 1
            tracer = Tracer()
            if slowed:
                tracer.patch(st.lra, "check_feasible", make_slowed(st.lra.check_feasible))
            try:
                p = run.run_pass(st, instances, weights, time.perf_counter() + 60, run.Tally())
            finally:
                tracer.uninstall()
            compiles[slowed].append(p.compiles)
    finally:
        clock.stop()

    def ratio(dur):
        plain, slowed = (
            statistics.median(sum(dur(c[i], c[i + 1]) for i in range(0, len(c), 2)) for c in compiles[side])
            for side in (False, True)
        )
        return slowed / plain

    return ratio(wall), ratio(clock.scaled)


@pytest.mark.parametrize("make_slowed", [_twice, _allocating], ids=["twice", "allocating"])
def test_scaling_keeps_an_injected_slowdown(make_slowed):
    unscaled, scaled = slowdown_ratios(make_slowed)
    print(f"{make_slowed.__name__}: slowed / plain compile time {unscaled:.3f} unscaled, {scaled:.3f} scaled")
    assert unscaled > 1.2
    assert 0.9 <= scaled / unscaled <= 1.1
