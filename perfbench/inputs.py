"""Workload inputs: SMT-LIB2 text for each instance, and its reference answers.

The program under test only ever sees the text made here.  Random instances
come from ``smtrace.randgen`` and are rendered to SMT-LIB2 by this module, so
``parse_smt2`` is on the timed path.  Reference answers never come from the
compiler: the sweeps and the real chain use answers the brute-force oracle
wrote into ``refs.json`` (see ``make_refs.py``); the Boolean chain uses closed
forms computed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# Each sweep takes instance seeds s..s+SWEEP_SIZE-1 of both generators.  The
# start s is the workload seed modulo WINDOW_STARTS.  The eager load is heavy
# tailed: instance 103 alone is about 40 % of the eager time and instance 205
# adds about 8 %.  Every start in 0..5 keeps 103 and leaves out 205, so a
# run's totals measure the code rather than which outlier the seed drew.
SWEEP_SIZE = 200
WINDOW_STARTS = 6
POOL_SIZE = SWEEP_SIZE + WINDOW_STARTS - 1  # instance seeds 0..POOL_SIZE-1

REAL_CHAIN_SIZES = (6, 8, 10)
BOOL_CHAIN_SIZES = (100, 200, 400)

ENUM_CAP = 1000  # models asked of enumerate_models per instance

# Each query is asked of each graph up to QUERY_REPEATS times, and the median
# repetition counts; repeating stops once the repetitions took QUERY_BUDGET_S,
# so a long query (enumerate on the Boolean chain) leaves room for more passes.
QUERY_REPEATS = 3
QUERY_BUDGET_S = 0.5

WORKLOADS = ("sweep-lazy", "sweep-eager", "real-chain", "bool-chain")


@dataclass
class Instance:
    """One input: its text, the compile mode and the answers to check."""

    name: str
    text: str
    mode: str
    atoms: int
    count: int
    wcount: Fraction
    models: frozenset[int] | None  # every model as a bit mask, when known
    chain: int | None = None  # Boolean chain length, whose models are checked by rule


def weight(var: int, positive: bool) -> Fraction:
    """Literal weight used by the weighted-count queries and their references."""
    w = Fraction(var % 4 + 1, 5)
    return w if positive else 1 - w


def model_mask(model: dict[int, bool]) -> int:
    return sum(1 << (v - 1) for v, val in model.items() if val)


def weighted_sum(masks, atoms: int) -> Fraction:
    total = Fraction(0)
    for m in masks:
        term = Fraction(1)
        for v in range(1, atoms + 1):
            term *= weight(v, bool(m >> (v - 1) & 1))
        total += term
    return total


# ---------------------------------------------------------------------------
# SMT-LIB2 rendering


def _num(c: Fraction) -> str:
    if c.denominator != 1:
        return f"(/ {_num(Fraction(c.numerator))} {c.denominator})"
    return str(c.numerator) if c >= 0 else f"(- {-c.numerator})"


def _term(term, names) -> str:
    parts = []
    for v, c in term.coeffs:
        parts.append(names[v] if c == 1 else f"(* {_num(c)} {names[v]})")
    if term.const != 0 or not parts:
        parts.append(_num(term.const))
    return parts[0] if len(parts) == 1 else f"(+ {' '.join(parts)})"


def _atom(atom, names) -> str:
    if atom.kind == "bool":
        return atom.name
    op = "<=" if atom.kind == "leq" else "="
    return f"({op} {_term(atom.term, names)} 0)"


def render(st, formula) -> str:
    """SMT-LIB2 text whose parse has the same models as ``formula``.

    Atoms of the table that the formula body never mentions are still
    variables of its models, so each gets a tautological assertion.
    """
    fe = st.frontend
    table = formula.table
    names = table.real_names
    used: set[int] = set()

    def node(n) -> str:
        if isinstance(n, fe.FTrue):
            return "true"
        if isinstance(n, fe.FFalse):
            return "false"
        if isinstance(n, fe.FLit):
            used.add(n.lit.atom)
            text = _atom(table.atom(n.lit.atom), names)
            return text if n.lit.positive else f"(not {text})"
        if isinstance(n, fe.FNot):
            return f"(not {node(n.child)})"
        if isinstance(n, fe.FImplies):
            return f"(=> {node(n.left)} {node(n.right)})"
        if isinstance(n, (fe.FAnd, fe.FOr)):
            if not n.children:
                return "true" if isinstance(n, fe.FAnd) else "false"
            op = "and" if isinstance(n, fe.FAnd) else "or"
            return f"({op} {' '.join(node(c) for c in n.children)})"
        raise TypeError(f"not a formula node: {n!r}")

    body = node(formula.root)
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {name} Real)" for name in names]
    lines += [f"(declare-const {a.name} Bool)" for a in table.atoms if a.kind == "bool"]
    lines.append(f"(assert {body})")
    for a in table.atoms:
        if a.id not in used:
            text = _atom(a, names)
            lines.append(f"(assert (or {text} (not {text})))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def real_chain_text(n: int, prefix: str = "x") -> str:
    """``x_i <= x_{i+1} or x_i >= 5`` for i = 1..n-1."""
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {prefix}{i} Real)" for i in range(1, n + 1)]
    lines += [f"(assert (or (<= {prefix}{i} {prefix}{i + 1}) (>= {prefix}{i} 5)))" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def bool_chain_text(n: int, prefix: str = "A") -> str:
    """``A_i or A_{i+1}`` for i = 1..n-1."""
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {prefix}{i} Bool)" for i in range(1, n + 1)]
    lines += [f"(assert (or {prefix}{i} {prefix}{i + 1}))" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def sweep_formulas(st, start: int, size: int = SWEEP_SIZE):
    """(name, Formula) for both generators at instance seeds start..start+size-1."""
    out = []
    for s in range(start, start + size):
        out.append((f"f{s}", st.random_formula(s)))
        out.append((f"n{s}", st.random_nested_formula(s)))
    return out


# ---------------------------------------------------------------------------
# closed forms for the Boolean chain


def bool_chain_count(n: int) -> int:
    """Models of the chain: words with no two adjacent false, F(n+2)."""
    a, b = 1, 2  # chains of length 0 and 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def bool_chain_wcount(n: int) -> Fraction:
    """Weighted count by the two-state recurrence on the last variable."""
    last_true, last_false = weight(1, True), weight(1, False)
    for v in range(2, n + 1):
        last_true, last_false = (
            (last_true + last_false) * weight(v, True),
            last_true * weight(v, False),
        )
    return last_true + last_false


def bool_chain_model_ok(model: dict[int, bool], n: int) -> bool:
    if sorted(model) != list(range(1, n + 1)):
        return False
    return all(model[i] or model[i + 1] for i in range(1, n))


# ---------------------------------------------------------------------------
# workloads


def _oracle_instance(name, text, mode, ref) -> Instance:
    return Instance(
        name=name,
        text=text,
        mode=mode,
        atoms=ref["atoms"],
        count=ref["count"],
        wcount=Fraction(ref["wcount"]),
        models=frozenset(ref["models"]),
    )


def build(st, workload: str, seed: int) -> list[Instance]:
    """The instances of one workload at one seed, with their references."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "bool-chain":
        prefix = f"A{seed}_"
        return [
            Instance(
                name=f"bool{n}",
                text=bool_chain_text(n, prefix),
                mode="lazy",
                atoms=n,
                count=bool_chain_count(n),
                wcount=bool_chain_wcount(n),
                models=None,
                chain=n,
            )
            for n in BOOL_CHAIN_SIZES
        ]
    refs = json.loads(REFS_PATH.read_text())
    if workload == "real-chain":
        prefix = f"x{seed}_"
        return [
            _oracle_instance(f"real{n}", real_chain_text(n, prefix), "lazy", refs["real-chain"][str(n)])
            for n in REAL_CHAIN_SIZES
        ]
    mode = "lazy" if workload == "sweep-lazy" else "eager"
    start = seed % WINDOW_STARTS
    return [
        _oracle_instance(name, render(st, f), mode, refs["sweep"][name])
        for name, f in sweep_formulas(st, start)
    ]
