"""Eager strategy: block theory-infeasible literal combinations up front.

Minimal infeasible cores over the linear atoms (one literal per atom, both
polarities considered) are enumerated by increasing size, then by atom
combination, then by polarity, with superset pruning, and negated into
blocking clauses.  The scheme adds clauses but no variables; with k equal to
the number of linear atoms it is complete, so a purely propositional compile
of the result is theory-sound.

Three exact bounds skip candidates that cannot be minimal cores, so the
cores and their order are those of trying every combination:

- Connectivity.  A minimal core's atoms are connected through shared real
  variables: parts over disjoint reals are each feasible (every proper
  subset of a minimal core is), so their points combine into one for the
  union.
- Convexity.  A minimal core holds at most one negated equality.  Without
  its disequalities the core is a proper subset, so a nonempty convex set;
  it lies in the union of their hyperplanes, and a convex set inside
  finitely many hyperplanes lies in one of them, so that disequality alone
  already makes it infeasible.
- Helly's theorem.  With d the number of reals a candidate mentions, a core
  without a disequality is a family of convex sets in R^d, so it has at most
  d + 1 members.  In a core ``C + {t != 0}``, C is feasible and ``C + {t > 0}``
  is not, so by Helly at most d members of C entail ``t <= 0``; likewise
  for ``t >= 0``, so the core has at most 2d + 1 members.

Feasible candidates are mostly decided without Fourier-Motzkin.  Each atom
has one bit, in sorted atom order, and every point the enumeration has
audited is kept as a cell, the mask of the atoms true there: the origin,
and each witness ``check_feasible`` returns.  A candidate whose atoms are
the mask ``within`` and whose positive literals are ``pos`` holds at a cell
``c`` exactly when ``c & within == pos``: the cell's point then satisfies
each of its literals by exact evaluation, so a cell left by any earlier
candidate, of any size, decides it feasible.  Every other candidate runs
``check_feasible``, whose witness or certificate is audited there.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import or_

from .abstraction import ClauseDb, learn_theory_clause
from .frontend import EQ, AtomTable
from .lra import Point, check_feasible, literal_holds, literal_key


def _connected(masks: list[int]) -> bool:
    """Whether atoms with these real-variable bit masks are connected through
    shared reals."""
    reach, rest = masks[0], masks[1:]
    while rest:
        near = [m for m in rest if m & reach]
        if not near:
            return False
        rest = [m for m in rest if not m & reach]
        for m in near:
            reach |= m
    return True


def enumerate_infeasible_cores(table, atom_ids, k: int) -> list[frozenset[int]]:
    """All minimal theory-infeasible literal sets of size <= k over the atoms."""
    atoms = sorted(atom_ids)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    masks = {a: sum(1 << r for r in table.atom(a).term.real_vars) for a in atoms}
    eqs = sum(bit[a] for a in atoms if table.atom(a).kind == EQ)
    top = min(k, len(atoms), 2 * reduce(or_, masks.values(), 0).bit_count() + 1)

    def cell(point: Point) -> int:
        return sum(bit[a] for a in atoms if literal_holds(table, a, point))

    cells = [cell(Point())]  # the origin, then every witness
    cores: list[tuple[frozenset[int], int, int]] = []  # (core, the masks of its atoms and its positive literals)
    for size in range(1, top + 1):
        for combo in combinations(atoms, size):
            combo_masks = [masks[a] for a in combo]
            d = reduce(or_, combo_masks).bit_count()
            within = sum(bit[a] for a in combo)
            combo_eqs = eqs & within
            if size > 2 * d + 1 or (size > d + 1 and not combo_eqs) or not _connected(combo_masks):
                continue
            prior = [(core_bits, core_pos) for _, core_bits, core_pos in cores if core_bits & within == core_bits]
            seen = {c & within for c in cells}
            # polarities in product order, the positive literal first
            for pos in map(sum, product(*((bit[a], 0) for a in combo))):
                if pos in seen:
                    continue
                negated_eqs = (combo_eqs & ~pos).bit_count()
                if negated_eqs > 1 or (negated_eqs == 0 and size > d + 1):
                    continue
                if any(pos & core_bits == core_pos for core_bits, core_pos in prior):
                    continue
                lits = frozenset(a if pos & bit[a] else -a for a in combo)
                result = check_feasible(table, lits)
                if result.sat:
                    cells.append(cell(result.witness))
                    seen.add(pos)
                else:
                    cores.append((lits, within, pos))
    return [core for core, _, _ in cores]


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
