"""Boolean abstraction of a formula and CNF conversion.

The abstraction replaces every atom with the Boolean variable equal to its
atom id, so the map between the two is a bijection by construction.  CNF uses
full biconditional Tseitin definitions: auxiliary variables are functionally
determined by the atom variables, so model counts projected onto atom
variables are preserved without any projection machinery.  Formulas that are
already in clause shape get no auxiliaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import (
    Atom,
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
    atom_to_str,
)


class PNode:
    __slots__ = ()


@dataclass(frozen=True)
class PTrue(PNode):
    pass


@dataclass(frozen=True)
class PFalse(PNode):
    pass


@dataclass(frozen=True)
class PLit(PNode):
    lit: int  # signed Boolean variable, DIMACS style


@dataclass(frozen=True)
class PNot(PNode):
    child: PNode


@dataclass(frozen=True)
class PAnd(PNode):
    children: tuple[PNode, ...]


@dataclass(frozen=True)
class POr(PNode):
    children: tuple[PNode, ...]


@dataclass(frozen=True)
class PImplies(PNode):
    left: PNode
    right: PNode


@dataclass
class PropFormula:
    root: PNode
    num_vars: int


@dataclass
class AtomMap:
    """Bijection between non-auxiliary Boolean variables and atoms."""

    atoms: dict[int, Atom]
    real_names: list[str]
    # per-literal rows built once by the theory solver
    theory_rows: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_atom_vars(self) -> int:
        return len(self.atoms)

    def atom(self, var: int) -> Atom:
        return self.atoms[var]

    def is_linear_var(self, var: int) -> bool:
        atom = self.atoms.get(var)
        return atom is not None and atom.is_linear

    def linear_vars(self) -> list[int]:
        return sorted(v for v, a in self.atoms.items() if a.is_linear)

    def real_vars_of(self, var: int) -> frozenset[int]:
        atom = self.atoms.get(var)
        if atom is None or not atom.is_linear:
            return frozenset()
        return atom.term.real_vars


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

    def is_aux(self, var: int) -> bool:
        return var > self.num_atom_vars

    @property
    def aux_vars(self) -> range:
        return range(self.num_atom_vars + 1, self.num_vars + 1)


def boolean_abstract(f: Formula) -> tuple[PropFormula, AtomMap]:
    """Replace every atom leaf with a fresh Boolean variable (its atom id)."""

    def walk(node: FNode) -> PNode:
        if isinstance(node, FTrue):
            return PTrue()
        if isinstance(node, FFalse):
            return PFalse()
        if isinstance(node, FLit):
            var = node.lit.atom
            return PLit(var if node.lit.positive else -var)
        if isinstance(node, FNot):
            return PNot(walk(node.child))
        if isinstance(node, FAnd):
            return PAnd(tuple(walk(c) for c in node.children))
        if isinstance(node, FOr):
            return POr(tuple(walk(c) for c in node.children))
        if isinstance(node, FImplies):
            return PImplies(walk(node.left), walk(node.right))
        raise TypeError(f"not a formula node: {node!r}")

    amap = AtomMap(
        atoms={a.id: a for a in f.table.atoms},
        real_names=list(f.table.real_names),
    )
    return PropFormula(walk(f.root), len(f.table)), amap


def _nnf(node: PNode, neg: bool) -> PNode:
    """Push negation to literals, fold constants, flatten and dedupe."""
    if isinstance(node, PTrue):
        return PFalse() if neg else PTrue()
    if isinstance(node, PFalse):
        return PTrue() if neg else PFalse()
    if isinstance(node, PLit):
        return PLit(-node.lit) if neg else node
    if isinstance(node, PNot):
        return _nnf(node.child, not neg)
    if isinstance(node, PImplies):
        return _nnf(POr((PNot(node.left), node.right)), neg)
    if isinstance(node, (PAnd, POr)):
        conj = isinstance(node, PAnd) ^ neg
        gathered: list[PNode] = []
        seen: set[PNode] = set()
        for child in node.children:
            sub = _nnf(child, neg)
            if isinstance(sub, PTrue):
                if not conj:
                    return PTrue()
                continue
            if isinstance(sub, PFalse):
                if conj:
                    return PFalse()
                continue
            subs = sub.children if isinstance(sub, PAnd if conj else POr) else (sub,)
            for s in subs:
                if s not in seen:
                    seen.add(s)
                    gathered.append(s)
        if not gathered:
            return PTrue() if conj else PFalse()
        if len(gathered) == 1:
            return gathered[0]
        return PAnd(tuple(gathered)) if conj else POr(tuple(gathered))
    raise TypeError(f"not a propositional node: {node!r}")


def to_cnf(p: PropFormula) -> ClauseDb:
    """Equisatisfiable CNF with functionally determined Tseitin auxiliaries."""
    root = _nnf(p.root, False)
    clauses: list[tuple[int, ...]] = []
    defs: dict[PNode, int] = {}
    next_var = p.num_vars

    def add_clause(lits: list[int]) -> None:
        seen: list[int] = []
        for l in lits:
            if -l in seen:
                return  # tautology, always satisfied
            if l not in seen:
                seen.append(l)
        clauses.append(tuple(sorted(seen, key=lambda l: (abs(l), l < 0))))

    def define(node: PNode) -> int:
        """Auxiliary variable biconditionally defined as the subformula."""
        nonlocal next_var
        cached = defs.get(node)
        if cached is not None:
            return cached
        reps = [rep(c) for c in node.children]
        next_var += 1
        v = next_var
        defs[node] = v
        if isinstance(node, PAnd):
            for r in reps:
                add_clause([-v, r])
            add_clause([v] + [-r for r in reps])
        else:
            add_clause([-v] + reps)
            for r in reps:
                add_clause([v, -r])
        return v

    def rep(node: PNode) -> int:
        if isinstance(node, PLit):
            return node.lit
        return define(node)

    def emit_clause(or_node: PNode) -> None:
        # children of a flattened Or are literals or And subtrees
        add_clause([rep(c) for c in or_node.children])

    if isinstance(root, PFalse):
        clauses.append(())
    elif isinstance(root, PTrue):
        pass
    elif isinstance(root, PLit):
        add_clause([root.lit])
    elif isinstance(root, POr):
        emit_clause(root)
    else:  # PAnd of literals and Or subtrees
        for child in root.children:
            if isinstance(child, PLit):
                add_clause([child.lit])
            else:
                emit_clause(child)

    return ClauseDb(num_vars=next_var, num_atom_vars=p.num_vars, clauses=clauses)


def to_dimacs(db: ClauseDb, amap: AtomMap) -> str:
    """DIMACS dump with the atom map as `c atom` comment lines."""
    lines = []
    for var in sorted(amap.atoms):
        lines.append(f"c atom {var} {atom_to_str(amap.atoms[var], amap.real_names)}")
    lines.append(f"p cnf {db.num_vars} {len(db.clauses)}")
    for cl in db.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"
