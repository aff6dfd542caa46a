"""Which smtrace calls are traced, and the per-layer metrics made from them.

Layers are named after the modules.  Times ending in ``_s`` are seconds per
pass over the workload's instances, scaled as the end-to-end times are
(clock.py); "self" times exclude the time of traced calls made from inside
the call.
"""

from __future__ import annotations

from spans import Tracer, child_calls, summarize, wall

# (metric, unit) in the order they are reported
METRICS = (
    ("frontend.parse_s", "s"),
    ("frontend.atoms", "count"),
    ("abstraction.abstract_s", "s"),
    ("abstraction.cnf_s", "s"),
    ("abstraction.clauses", "count"),
    ("abstraction.aux_vars", "count"),
    ("eager.encode_s", "s"),
    ("eager.feasibility_calls", "count"),
    ("eager.cores", "count"),
    ("eager.core_yield", "ratio"),
    ("lra.check_s", "s"),
    ("lra.check_calls", "count"),
    ("lra.audit_s", "s"),
    ("lra.memo_hit_ratio", "ratio"),
    ("lra.minimize_s", "s"),
    ("lra.core_size_mean", "count"),
    ("lra.propagate_s", "s"),
    ("lra.propagation_yield", "ratio"),
    ("lra.literals_max", "count"),
    ("compiler.search_s", "s"),
    ("compiler.split_s", "s"),
    ("compiler.split_calls", "count"),
    ("compiler.propagate_s", "s"),
    ("compiler.decisions", "count"),
    ("compiler.conflicts", "count"),
    ("compiler.learned", "count"),
    ("compiler.theory_props", "count"),
    ("compiler.cache_hit_ratio", "ratio"),
    ("ddnnf.finish_s", "s"),
    ("ddnnf.kept_ratio", "ratio"),
    ("ddnnf.count_s", "s"),
    ("ddnnf.wcount_s", "s"),
    ("ddnnf.enumerate_s", "s"),
    ("ddnnf.nodes", "count"),
    ("trace.overhead", "ratio"),
)

_CHECK = "lra.check_feasible"
_MEMO_CALLERS = ("lra.assert_literal", "lra.entails", "lra.minimize_core")
_STATS = ("decisions", "conflicts", "learned", "theory_props", "cache_hits", "cache_misses")


def _add(name, measure):
    def hook(tracer, args, result, before):
        tracer.counts[name] += measure(args, result, before)

    return hook


def _add_cnf(tracer, args, db, before):
    tracer.counts["abstraction.clauses"] += len(db.clauses)
    tracer.counts["abstraction.aux_vars"] += db.num_vars - db.num_atom_vars


def _check_size(tracer, args):
    lits = args[1]
    if hasattr(lits, "__len__"):
        tracer.maxes["lra.literals_max"] = max(tracer.maxes["lra.literals_max"], len(lits))


def _compiled(tracer, args, graph, before):
    for key in _STATS:
        tracer.counts[key] += getattr(graph.stats, key)
    tracer.counts["ddnnf.nodes"] += len(graph)


def _finish_start(tracer, args):
    return len(args[0].nodes)  # nodes built, before finish keeps the reachable ones


def _finished(tracer, args, graph, built):
    tracer.counts["ddnnf.built"] += built
    tracer.counts["ddnnf.kept"] += len(graph.nodes)


def install(tracer: Tracer, st) -> None:
    """Wrap the public calls of every layer where their callers look them up."""
    fe, ab, eg, lra, cp, dd = st.frontend, st.abstraction, st.eager, st.lra, st.compiler, st.ddnnf

    def span(owner, attr, name, **hooks):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    span(fe, "parse_smt2", "frontend.parse_smt2",
         on_result=_add("frontend.atoms", lambda a, f, b: len(f.table)))
    span(ab, "boolean_abstract", "abstraction.boolean_abstract")
    span(ab, "to_cnf", "abstraction.to_cnf", on_result=_add_cnf)
    span(eg, "eager_encode", "eager.eager_encode",
         on_result=_add("eager.cores", lambda a, db, b: len(db.clauses) - len(a[0].clauses)))
    # eager imported check_feasible by name, so it is wrapped there as well
    span(eg, "check_feasible", _CHECK, on_call=_check_size)
    span(lra, "check_feasible", _CHECK, on_call=_check_size)
    span(lra, "witness_satisfies", "lra.witness_satisfies")
    span(lra, "verify_certificate", "lra.verify_certificate")
    span(lra.TheoryState, "assert_literal", "lra.assert_literal")
    span(lra.TheoryState, "entails", "lra.entails")
    tracer.patch(lra.TheoryState, "_check", tracer.counter("lra.memo_lookups", lra.TheoryState._check))
    span(lra, "minimize_core", "lra.minimize_core",
         on_result=_add("lra.core_literals", lambda a, core, b: len(core)))
    span(lra, "propagate_candidates", "lra.propagate_candidates",
         on_result=_add("lra.propagated", lambda a, lits, b: len(lits)))
    span(cp, "compile", "compiler.compile", on_result=_compiled)
    span(cp, "split_components", "compiler.split_components")
    span(cp.WatchedClauses, "propagate", "compiler.propagate")
    span(dd.GraphBuilder, "finish", "ddnnf.finish", on_call=_finish_start, on_result=_finished)
    span(dd, "count", "ddnnf.count")
    span(dd, "weighted_count", "ddnnf.weighted_count")
    span(dd, "enumerate_models", "ddnnf.enumerate_models")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(spans, counts, maxes, dur=wall) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead`` excluded).

    ``dur`` measures a span's interval; the benchmark passes the scaled clock,
    so the layer times are in the same units as the end-to-end times.
    """
    s = summarize(spans, dur)
    misses = sum(child_calls(spans, _CHECK, caller) for caller in _MEMO_CALLERS)
    eager_checks = child_calls(spans, _CHECK, "eager.eager_encode")
    lookups = counts["lra.memo_lookups"]
    cache_lookups = counts["cache_hits"] + counts["cache_misses"]
    return {
        "frontend.parse_s": s["frontend.parse_smt2"]["total"],
        "frontend.atoms": counts["frontend.atoms"],
        "abstraction.abstract_s": s["abstraction.boolean_abstract"]["total"],
        "abstraction.cnf_s": s["abstraction.to_cnf"]["total"],
        "abstraction.clauses": counts["abstraction.clauses"],
        "abstraction.aux_vars": counts["abstraction.aux_vars"],
        "eager.encode_s": s["eager.eager_encode"]["self"],
        "eager.feasibility_calls": eager_checks,
        "eager.cores": counts["eager.cores"],
        "eager.core_yield": _ratio(counts["eager.cores"], eager_checks),
        "lra.check_s": s[_CHECK]["self"],
        "lra.check_calls": s[_CHECK]["calls"],
        "lra.audit_s": s["lra.witness_satisfies"]["total"] + s["lra.verify_certificate"]["total"],
        "lra.memo_hit_ratio": _ratio(lookups - misses, lookups),
        "lra.minimize_s": s["lra.minimize_core"]["total"],
        "lra.core_size_mean": _ratio(counts["lra.core_literals"], s["lra.minimize_core"]["calls"]),
        "lra.propagate_s": s["lra.propagate_candidates"]["total"],
        "lra.propagation_yield": _ratio(counts["lra.propagated"], s["lra.entails"]["calls"]),
        "lra.literals_max": maxes["lra.literals_max"],
        "compiler.search_s": s["compiler.compile"]["self"],
        "compiler.split_s": s["compiler.split_components"]["total"],
        "compiler.split_calls": s["compiler.split_components"]["calls"],
        "compiler.propagate_s": s["compiler.propagate"]["total"],
        "compiler.decisions": counts["decisions"],
        "compiler.conflicts": counts["conflicts"],
        "compiler.learned": counts["learned"],
        "compiler.theory_props": counts["theory_props"],
        "compiler.cache_hit_ratio": _ratio(counts["cache_hits"], cache_lookups),
        "ddnnf.finish_s": s["ddnnf.finish"]["total"],
        "ddnnf.kept_ratio": _ratio(counts["ddnnf.kept"], counts["ddnnf.built"]),
        "ddnnf.count_s": s["ddnnf.count"]["total"],
        "ddnnf.wcount_s": s["ddnnf.weighted_count"]["total"],
        "ddnnf.enumerate_s": s["ddnnf.enumerate_models"]["total"],
        "ddnnf.nodes": counts["ddnnf.nodes"],
    }
