"""Boolean abstraction of a formula and CNF conversion.

The abstraction is the parser's formula itself, read with atom id i as
Boolean variable i, so the map between the two is a bijection by
construction and the formula's ``AtomTable`` serves as the atom map.  CNF
conversion reads that tree directly, with the literal of ``FLit`` becoming the
signed variable ``±atom``.  CNF uses full biconditional Tseitin definitions:
auxiliary variables are functionally determined by the atom variables, so
model counts projected onto atom variables are preserved without any
projection machinery.  Formulas that are already in clause shape get no
auxiliaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import (
    AtomTable,
    FAnd,
    FFalse,
    FImplies,
    FLit,
    FNode,
    FNot,
    FOr,
    FTrue,
    Formula,
    UnsupportedFeatureError,
    atom_to_str,
)


@dataclass
class ClauseDb:
    """CNF over Boolean variables: atom variables first, auxiliaries after."""

    num_vars: int
    num_atom_vars: int
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for cl in self.clauses:
            seen = set(cl)
            if len(seen) != len(cl):
                raise ValueError(f"duplicate literal in clause {cl}")
            if any(-l in seen for l in cl):
                raise ValueError(f"tautological clause {cl}")

    @property
    def aux_vars(self) -> range:
        return range(self.num_atom_vars + 1, self.num_vars + 1)


def _lit_order(lit: int) -> tuple[int, bool]:
    return (abs(lit), lit < 0)


def learn_theory_clause(core) -> tuple[int, ...]:
    """Blocking clause for a theory core: the disjunction of its negations.

    The clause is theory-entailed, so adding it preserves the model set and
    every count.
    """
    return tuple(sorted((-lit for lit in core), key=_lit_order))


def boolean_abstract(f: Formula) -> tuple[Formula, AtomTable]:
    """The formula itself and its atom table: atom id i is Boolean variable i."""
    return f, f.table


def _nnf(node: FNode, neg: bool):
    """Push negation to literals, fold constants, flatten and dedupe.

    Literals come out as signed variables (ints); inner nodes as FAnd/FOr.
    """
    if isinstance(node, FTrue):
        return FFalse() if neg else FTrue()
    if isinstance(node, FFalse):
        return FTrue() if neg else FFalse()
    if isinstance(node, FLit):
        return -node.lit.signed if neg else node.lit.signed
    if isinstance(node, FNot):
        return _nnf(node.child, not neg)
    if isinstance(node, FImplies):
        return _nnf(FOr((FNot(node.left), node.right)), neg)
    if isinstance(node, (FAnd, FOr)):
        conj = isinstance(node, FAnd) ^ neg
        gathered: list = []
        seen: set = set()
        for child in node.children:
            sub = _nnf(child, neg)
            if isinstance(sub, FTrue):
                if not conj:
                    return FTrue()
                continue
            if isinstance(sub, FFalse):
                if conj:
                    return FFalse()
                continue
            subs = sub.children if isinstance(sub, FAnd if conj else FOr) else (sub,)
            for s in subs:
                if s not in seen:
                    seen.add(s)
                    gathered.append(s)
        if not gathered:
            return FTrue() if conj else FFalse()
        if len(gathered) == 1:
            return gathered[0]
        return FAnd(tuple(gathered)) if conj else FOr(tuple(gathered))
    raise TypeError(f"not a formula node: {node!r}")


def to_cnf(f: Formula) -> ClauseDb:
    """Equisatisfiable CNF with functionally determined Tseitin auxiliaries,
    over the formula's ``len(f.table)`` atom variables, then the auxiliaries."""
    clauses: list[tuple[int, ...]] = []
    defs: dict[FNode, int] = {}
    next_var = len(f.table)

    def add_clause(lits: list[int]) -> None:
        seen: list[int] = []
        for l in lits:
            if -l in seen:
                return  # tautology, always satisfied
            if l not in seen:
                seen.append(l)
        clauses.append(tuple(sorted(seen, key=_lit_order)))

    def define(node: FNode) -> int:
        """Auxiliary variable biconditionally defined as the subformula."""
        nonlocal next_var
        cached = defs.get(node)
        if cached is not None:
            return cached
        reps = [rep(c) for c in node.children]
        next_var += 1
        v = next_var
        defs[node] = v
        if isinstance(node, FAnd):
            for r in reps:
                add_clause([-v, r])
            add_clause([v] + [-r for r in reps])
        else:
            add_clause([-v] + reps)
            for r in reps:
                add_clause([v, -r])
        return v

    def rep(node) -> int:
        return node if isinstance(node, int) else define(node)

    try:  # _nnf, define and the formula nodes' hashes recurse once per nesting level
        root = _nnf(f.root, False)
        if isinstance(root, FFalse):
            clauses.append(())
        elif not isinstance(root, FTrue):
            # the conjuncts of a flattened And are literals or Ors; an Or's
            # children are literals or And subtrees
            for conjunct in root.children if isinstance(root, FAnd) else (root,):
                add_clause([conjunct] if isinstance(conjunct, int) else [rep(c) for c in conjunct.children])
    except RecursionError:
        raise UnsupportedFeatureError("formula nested too deeply") from None

    return ClauseDb(num_vars=next_var, num_atom_vars=len(f.table), clauses=clauses)


def to_dimacs(db: ClauseDb, amap: AtomTable) -> str:
    """DIMACS dump with the atom table as `c atom` comment lines; a symbol
    that no line can hold is a ``ValueError`` (``atom_to_str``)."""
    lines = [f"c atom {a.id} {atom_to_str(a, amap.real_names)}" for a in amap.atoms[: db.num_atom_vars]]
    lines.append(f"p cnf {db.num_vars} {len(db.clauses)}")
    for cl in db.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"
