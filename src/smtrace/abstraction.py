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

Both passes, negation normal form and the Tseitin definitions, walk the tree
on explicit stacks, so depth costs no recursion.  Normal-form nodes are
built once per distinct subformula, so equal subformulas are one object and
share one auxiliary.
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
            if len(set(map(abs, cl))) != len(cl):  # a variable twice: repeated or negated
                if len(set(cl)) != len(cl):
                    raise ValueError(f"duplicate literal in clause {cl}")
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


_TRUE, _FALSE = FTrue(), FFalse()


def _nnf(node: FNode, neg: bool):
    """Push negation to literals, fold constants, flatten and dedupe.

    Literals come out as signed variables (ints); inner nodes as FAnd/FOr,
    each distinct one built once, so equal subformulas are one object and
    compare at once.  The walk keeps a frame per And or Or being converted,
    ``[its children, neg, conjunction, gathered]`` (an Implies is the Or of
    its negated left and its right; ``gathered`` is a dict, which keeps the
    first of equal children, in order), takes literal children in place and
    stops a frame at its first absorbing constant.
    """
    made: dict[FNode, FNode] = {}
    frames: list[list] = []
    while True:
        while isinstance(node, FNot):
            node, neg = node.child, not neg
        value = None
        if isinstance(node, FLit):
            value = node.lit.atom if node.lit.positive != neg else -node.lit.atom
        elif isinstance(node, (FAnd, FOr)):
            frames.append([iter(node.children), neg, isinstance(node, FAnd) ^ neg, {}])
        elif isinstance(node, FImplies):
            frames.append([iter((FNot(node.left), node.right)), neg, neg, {}])
        elif isinstance(node, (FTrue, FFalse)):
            value = _TRUE if isinstance(node, FTrue) ^ neg else _FALSE
        else:
            raise TypeError(f"not a formula node: {node!r}")
        while frames:  # fold value into the top frame, then go on to its next child
            children, fneg, conj, gathered = frames[-1]
            if value is _TRUE or value is _FALSE:
                if (value is _TRUE) != conj:  # absorbing: the frame's value
                    frames.pop()
                    continue
            elif isinstance(value, FAnd if conj else FOr):
                gathered.update(dict.fromkeys(value.children))
            elif value is not None:
                gathered[value] = None
            for node in children:
                neg = fneg
                while isinstance(node, FNot):
                    node, neg = node.child, not neg
                if not isinstance(node, FLit):
                    break
                gathered[node.lit.atom if node.lit.positive != neg else -node.lit.atom] = None
            else:
                frames.pop()
                if len(gathered) > 1:
                    value = FAnd(tuple(gathered)) if conj else FOr(tuple(gathered))
                    value = made.setdefault(value, value)
                else:
                    value = next(iter(gathered)) if gathered else _TRUE if conj else _FALSE
                continue
            break  # down into node
        else:
            return value


def to_cnf(f: Formula) -> ClauseDb:
    """Equisatisfiable CNF with functionally determined Tseitin auxiliaries,
    over the formula's ``len(f.table)`` atom variables, then the auxiliaries."""
    clauses: list[tuple[int, ...]] = []
    defs: dict[FNode, int] = {}
    next_var = len(f.table)

    def add_clause(lits: list[int]) -> None:
        """Add the clause of ``lits``, which are distinct, unless it holds a
        literal and its negation."""
        if len(set(map(abs, lits))) == len(lits):
            clauses.append(tuple(sorted(lits, key=abs)))

    def define(node: FNode) -> int:
        """The auxiliary variable biconditionally defined as the subformula.
        Undefined subformulas are defined children first, on a stack of
        ``(node, its children's literals so far)``."""
        nonlocal next_var
        v = defs.get(node)
        if v is not None:
            return v
        frames = [(node, [])]
        while True:
            node, reps = frames[-1]
            children = node.children
            while len(reps) < len(children):
                child = children[len(reps)]
                r = child if isinstance(child, int) else defs.get(child)
                if r is None:
                    frames.append((child, []))
                    break
                reps.append(r)
            else:
                frames.pop()
                next_var += 1
                v = defs[node] = next_var
                # each literal of a child is below v, which orders the pairs
                if isinstance(node, FAnd):
                    clauses.extend((r, -v) for r in reps)
                    add_clause([v] + [-r for r in reps])
                else:
                    add_clause([-v] + reps)
                    clauses.extend((-r, v) for r in reps)
                if not frames:
                    return v
                frames[-1][1].append(v)

    root = _nnf(f.root, False)
    if root is _FALSE:
        clauses.append(())
    elif root is not _TRUE:
        # the conjuncts of a flattened And are literals or Ors; an Or's
        # children are literals or And subtrees
        for conjunct in root.children if isinstance(root, FAnd) else (root,):
            if isinstance(conjunct, int):
                clauses.append((conjunct,))
            else:
                add_clause([c if isinstance(c, int) else define(c) for c in conjunct.children])

    return ClauseDb(num_vars=next_var, num_atom_vars=len(f.table), clauses=clauses)


def to_dimacs(db: ClauseDb, amap: AtomTable) -> str:
    """DIMACS dump with the atom table as `c atom` comment lines; a symbol
    that no line can hold is a ``ValueError`` (``atom_to_str``)."""
    lines = [f"c atom {a.id} {atom_to_str(a, amap.real_names)}" for a in amap.atoms[: db.num_atom_vars]]
    lines.append(f"p cnf {db.num_vars} {len(db.clauses)}")
    for cl in db.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"
