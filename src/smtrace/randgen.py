"""Seeded random instance generator for sweeps and differential tests."""

from __future__ import annotations

import random

from .frontend import (
    FAnd,
    FImplies,
    FLit,
    FNode,
    FNot,
    FOr,
    Formula,
    AtomTable,
    LinTerm,
    Literal,
    normalize_comparison,
)

_OPS = ("<", ">", "<=", ">=", "=", "!=")


def _literal_pool(rng, table, n_atoms, real_ids, prop_ratio=0.3):
    pool: list[Literal] = []
    for i in range(n_atoms):
        if rng.random() < prop_ratio:
            pool.append(Literal(table.intern_bool(f"p{i}"), True))
            continue
        while True:
            coeffs = {}
            for rid in rng.sample(real_ids, rng.randint(1, len(real_ids))):
                c = rng.randint(-3, 3)
                if c:
                    coeffs[rid] = c
            if not coeffs:
                continue
            lhs = LinTerm.make(coeffs, rng.randint(-4, 4))
            rhs = LinTerm.constant(rng.randint(-4, 4))
            op = rng.choices(_OPS, weights=(4, 4, 4, 4, 1, 1))[0]
            lit = normalize_comparison(table, op, lhs, rhs)
            if not isinstance(lit, bool):
                pool.append(lit)
                break
    return pool


def random_formula(
    seed: int,
    max_atoms: int = 8,
    max_reals: int = 3,
    max_clauses: int = 12,
    max_width: int = 3,
) -> Formula:
    """A random CNF-shaped formula over mixed propositional and linear atoms."""
    rng = random.Random(seed)
    table = AtomTable()
    n_reals = rng.randint(1, max_reals)
    real_ids = [table.real_var(name) for name in ("x", "y", "z")[:n_reals]]
    pool = _literal_pool(rng, table, rng.randint(1, max_atoms), real_ids)

    clauses: list[FNode] = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, max_width)
        lits = []
        for _ in range(width):
            lit = rng.choice(pool)
            if rng.random() < 0.5:
                lit = lit.negated()
            lits.append(FLit(lit))
        clauses.append(FOr(tuple(lits)))
    return Formula(FAnd(tuple(clauses)), table)


def random_nested_formula(seed: int, max_atoms: int = 5, depth: int = 3) -> Formula:
    """A randomly nested (non-clausal) formula; CNF conversion will need
    Tseitin auxiliaries, exercising their interplay with theory atoms."""
    rng = random.Random(seed)
    table = AtomTable()
    real_ids = [table.real_var(n) for n in ("x", "y")]
    pool = _literal_pool(rng, table, rng.randint(2, max_atoms), real_ids, prop_ratio=0.35)

    def node(d: int) -> FNode:
        if d == 0 or rng.random() < 0.3:
            lit = rng.choice(pool)
            if rng.random() < 0.5:
                lit = lit.negated()
            return FLit(lit)
        kind = rng.choice(("and", "or", "not", "implies"))
        if kind == "not":
            return FNot(node(d - 1))
        if kind == "implies":
            return FImplies(node(d - 1), node(d - 1))
        children = tuple(node(d - 1) for _ in range(rng.randint(2, 3)))
        return FAnd(children) if kind == "and" else FOr(children)

    return Formula(node(depth), table)
