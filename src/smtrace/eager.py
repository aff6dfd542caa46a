"""Eager strategy: block theory-infeasible literal combinations up front.

Minimal infeasible cores over the linear atoms (one literal per atom, both
polarities considered) of at most k literals are negated into blocking
clauses.  The scheme adds clauses but no variables; with k equal to the
number of linear atoms it is complete, so a purely propositional compile of
the result is theory-sound.  The cores come in the order of trying every
combination by size, then by atoms, then by polarity, with superset pruning.

Cores are read off the atoms' normals, their integer coefficient vectors
over the reals, and no candidate is tried at a point.  As a row, the
literal of ``t <= 0`` is ``t <= 0`` when positive and ``-t < 0`` when
negated, and the positive literal of ``t = 0`` is one row ``t = 0``.

- Circuits.  By Motzkin's transposition theorem a set of rows
  ``a_i.x + c_i (<=, <, =) 0`` is infeasible iff multipliers y, positive on
  its inequality rows, have ``sum y_i a_i = 0`` and ``sum y_i c_i > 0``, or
  ``= 0`` with a strict row.  In a minimal infeasible set every y_i is
  nonzero, and the normals have rank s - 1 for s rows: a second dependency,
  added to y until some multiplier is zero, would keep the sum's sign and
  certify a proper subset (Gleeson & Ryan, "Identifying Minimally
  Infeasible Subsystems of Inequalities", ORSA J. Computing 1990).  So a
  core's atoms form a circuit: their normals have one dependency y, up to
  scale, with every entry nonzero, and every proper subset has independent
  normals, so it is feasible and a core found on a circuit is minimal.  y
  and -y each fix the polarities: an inequality atom's literal is positive
  iff its y_i > 0, an equality's is positive, and the set is a core iff the
  sum is > 0, or 0 with a negated inequality.
- Disequalities.  A negated equality ``t != 0`` is no row.  A minimal core
  holds at most one: without them the core is a feasible convex set inside
  the union of their hyperplanes, so inside one of them, whose disequality
  alone is infeasible with it.  In a core ``C + {t != 0}`` the set C is
  feasible and entails ``t = 0``, so ``C + {t < 0}`` and ``C + {t > 0}`` are
  infeasible; a minimal subset of C infeasible with one side, a half-core,
  is found on a circuit through t with its row strict (y_t > 0 for ``<``,
  y_t < 0 for ``>``), infeasible iff the sum is >= 0.  C is the union of
  one half-core of each side, by minimality.  Both may hold all of C, so a
  half-core runs to k - 1 literals.  A union that repeats an atom, has more
  than k literals with ``t != 0``, or holds a core found before it, is none.

Each core then runs ``check_feasible``, which refutes it and audits its
Farkas certificate, so Fourier-Motzkin only certifies what the normals
found; a set it did not refute would not be blocked.
"""

from __future__ import annotations

import math
from itertools import product

from .abstraction import ClauseDb, learn_theory_clause
from .frontend import EQ, AtomTable
from .lra import check_feasible, literal_key


def enumerate_infeasible_cores(table, atom_ids, k: int) -> list[frozenset[int]]:
    """All minimal theory-infeasible literal sets of size <= k over the atoms."""
    atoms = sorted(atom_ids)
    terms = [table.atom(a).term for a in atoms]
    eqs = [table.atom(a).kind == EQ for a in atoms]
    reals = sorted({v for t in terms for v, _ in t.coeffs})
    width = len(reals)
    # each normal, then a unit vector that tracks the normals combined into it
    rows = [
        [dict(t.coeffs).get(v, 0) for v in reals] + [int(i == j) for j in range(len(atoms))] for i, t in enumerate(terms)
    ]
    found: set[frozenset[int]] = set()
    halves: dict[int, tuple[list, list]] = {}  # equality atom -> half-cores with t < 0, with t > 0

    def circuit(combo: tuple[int, ...], dep: list[int]) -> None:
        for y in (dep, [-d for d in dep]):
            lits = frozenset(atoms[i] if eqs[i] or yi > 0 else -atoms[i] for i, yi in zip(combo, y))
            total = sum(yi * terms[i].const for i, yi in zip(combo, y))
            if total > 0 or (total == 0 and any(lit < 0 for lit in lits)):
                found.add(lits)
            if total >= 0:
                for i, yi in zip(combo, y):
                    if eqs[i]:
                        halves.setdefault(atoms[i], ([], []))[yi < 0].append(lits - {atoms[i]})

    def grow(combo: tuple[int, ...], basis: list[tuple[int, list[int]]]) -> None:
        """Extend an independent set of normals, reduced to echelon rows
        ``basis``, by each later atom; a set holding a dependent one is no
        circuit, since its dependency is zero off that set."""
        for j in range(combo[-1] + 1 if combo else 0, len(atoms)):
            row = rows[j]
            for p, b in basis:
                if row[p]:
                    f, g = b[p], row[p]
                    row = [f * x - g * z for x, z in zip(row, b)]
            ext = combo + (j,)
            pivot = next((c for c in range(width) if row[c]), None)
            if pivot is None:
                if all(row[width + i] for i in ext):
                    circuit(ext, [row[width + i] for i in ext])
            elif len(ext) < k:
                g = math.gcd(*row)
                grow(ext, [*basis, (pivot, [x // g for x in row])])

    grow((), [])
    for t, (below, above) in halves.items():
        for s1, s2 in product(below, above):
            union = s1 | s2
            if len(union) < k and not any(-lit in union for lit in union):
                found.add(union | {-t})
    cores: list[frozenset[int]] = []
    # by size, atoms and polarity, the positive literal first; only a refuted
    # set, its certificate audited, is a core
    for lits in sorted(found, key=lambda c: (len(c), sorted(map(abs, c)), [lit < 0 for lit in sorted(c, key=abs)])):
        if not any(core <= lits for core in cores) and not check_feasible(table, lits).sat:
            cores.append(lits)
    return cores


def eager_encode(db: ClauseDb, amap: AtomTable, k: int | None = None) -> ClauseDb:
    """Augment the CNF with one blocking clause per infeasible core."""
    linear = amap.linear_vars()
    if k is None:
        k = len(linear)
    if not linear or k < 1:
        return ClauseDb(db.num_vars, db.num_atom_vars, list(db.clauses))
    cores = enumerate_infeasible_cores(amap, linear, k)
    clauses = list(db.clauses)
    for core in sorted(cores, key=lambda core: sorted(map(literal_key, core))):
        clauses.append(learn_theory_clause(core))
    return ClauseDb(db.num_vars, db.num_atom_vars, clauses)
