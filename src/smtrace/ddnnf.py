"""The compiled target language: d-DNNF graphs and their queries.

Nodes are stored in topological order (children precede parents).  A
``GraphBuilder`` records each node as a plain tuple in its list ``nodes``
(the name ``perfbench/layers.py`` reads); ``finish`` makes one ``Node`` per
tuple the root reaches, so each node of a graph is built once.  Or nodes
are binary decision nodes carrying the decision variable.  Literal nodes can
be tagged as theory-implied, which drives the condensed export.  Counting and
enumeration range over non-auxiliary atom variables only; Tseitin auxiliaries
are functionally determined and contribute factor one.  A node's atom scope
is an int bitmask (bit v for atom variable v), so the totality gate and the
validator test decomposability and totality with ``&`` and ``==``, and the
queries read the root scope's variables from the root mask.  Count and
weighted count are one integer pass over the node list, and enumeration
walks an explicit stack, so graph depth costs no recursion.  Enumeration
returns read-only ``Model`` mappings that share one variable index.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .frontend import (
    BOOL,
    EQ,
    LEQ,
    AtomTable,
    LinTerm,
    atom_to_str,
    canonical_eq,
    canonical_leq,
)
from . import lra

KTRUE = "T"
KFALSE = "F"
KLIT = "L"
KAND = "A"
KOR = "O"


class DdnnfError(Exception):
    pass


class NotTotalError(DdnnfError):
    """The graph does not assign every scope atom on every accepted path."""


class NotTaggedError(DdnnfError):
    """condense() needs implied-literal provenance, which this graph lacks."""


class FormatError(DdnnfError):
    """Malformed .nnf or .atoms input."""


@dataclass(slots=True)
class Node:
    """One node of a finished graph.  ``GraphBuilder.finish`` makes each
    once, and nothing changes it afterwards; nodes are compared, never
    hashed."""

    kind: str
    lit: int = 0  # signed var, for KLIT
    children: tuple[int, ...] = ()
    decision: int = 0  # decision variable, for KOR (0 if unknown)
    implied: bool = False  # theory-implied tag, for KLIT


@dataclass
class DdnnfGraph:
    nodes: list[Node]
    root: int
    num_vars: int
    num_atom_vars: int
    amap: AtomTable | None = None
    has_tags: bool = False
    stats: object | None = None
    _scopes: list[int] | None = None
    _total: bool = False  # the totality gate passed; a failing graph is checked again

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes)

    def scopes(self) -> list[int]:
        """Per-node atom-variable scope as a bitmask: bit v is set for atom
        variable v (auxiliary variables excluded)."""
        if self._scopes is None:
            out: list[int] = []
            for node in self.nodes:
                if node.kind == KLIT:
                    var = abs(node.lit)
                    out.append(1 << var if var <= self.num_atom_vars else 0)
                else:
                    mask = 0
                    for c in node.children:
                        mask |= out[c]
                    out.append(mask)
            self._scopes = out
        return self._scopes


def variables_of(mask: int) -> list[int]:
    """The variables of a mask (bit v for variable v), ascending.  A sparse
    mask is read a set bit at a time; a dense one from its binary digits,
    since a step per set bit costs an operation on the whole mask."""
    if mask.bit_count() * 3 < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    if not mask:
        return []
    low = (mask & -mask).bit_length() - 1
    return [v for v, digit in enumerate(bin(mask >> low)[:1:-1], low) if digit == "1"]


class GraphBuilder:
    """Incremental construction with constant/unary simplification.

    Literal nodes are interned per (literal, implied-tag); And/Or nodes are
    created fresh so node counts reflect the recorded trace, with sharing
    arising through the compiler's component cache.  Each node is recorded
    in ``nodes`` as a plain tuple ``(kind, lit, children, decision,
    implied)``, the fields of a ``Node`` in order; ``finish`` makes one
    ``Node`` per tuple the root reaches.  The list keeps the name ``nodes``
    because ``perfbench/layers.py`` reads its length as the nodes built.
    """

    def __init__(self, num_vars: int, num_atom_vars: int) -> None:
        self.nodes: list[tuple] = [(KTRUE, 0, (), 0, False), (KFALSE, 0, (), 0, False)]
        self.true_id = 0
        self.false_id = 1
        self.num_vars = num_vars
        self.num_atom_vars = num_atom_vars
        self._lits: dict[tuple[int, bool], int] = {}

    def lit(self, signed: int, implied: bool = False) -> int:
        key = (signed, implied)
        nid = self._lits.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append((KLIT, signed, (), 0, implied))
            self._lits[key] = nid
        return nid

    def and_node(self, children: list[int]) -> int:
        kept = []
        for c in children:
            if c == self.false_id:
                return self.false_id
            if c != self.true_id:
                kept.append(c)
        if not kept:
            return self.true_id
        if len(kept) == 1:
            return kept[0]
        nid = len(self.nodes)
        self.nodes.append((KAND, 0, tuple(kept), 0, False))
        return nid

    def or_node(self, decision: int, hi: int, lo: int) -> int:
        # a dead branch collapses the Or onto the surviving conjunction
        if hi == self.false_id and lo == self.false_id:
            return self.false_id
        if hi == self.false_id:
            return lo
        if lo == self.false_id:
            return hi
        nid = len(self.nodes)
        self.nodes.append((KOR, 0, (hi, lo), decision, False))
        return nid

    def finish(self, root: int, amap: AtomTable | None, has_tags: bool) -> DdnnfGraph:
        """Extract the subgraph reachable from the root, renumbered, one
        ``Node`` per reachable record in build order."""
        built = self.nodes
        reachable = [False] * len(built)
        stack = [root]
        while stack:
            nid = stack.pop()
            if reachable[nid]:
                continue
            reachable[nid] = True
            stack.extend(built[nid][2])
        remap = [0] * len(built)
        nodes: list[Node] = []
        for nid, (kind, lit, children, decision, implied) in enumerate(built):
            if reachable[nid]:
                remap[nid] = len(nodes)
                nodes.append(Node(kind, lit, tuple(map(remap.__getitem__, children)), decision, implied))
        return DdnnfGraph(
            nodes=nodes,
            root=remap[root],
            num_vars=self.num_vars,
            num_atom_vars=self.num_atom_vars,
            amap=amap,
            has_tags=has_tags,
        )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str  # dag | determinism | decomposability | totality | theory
    node: int | None = None
    assignment: tuple[tuple[int, bool], ...] | None = None
    message: str = ""


@dataclass
class Report:
    level: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _top_level_polarity(g: DdnnfGraph, child: int, var: int) -> bool | None:
    """Polarity of a top-level literal conjunct of var in the child, if any."""
    node = g.nodes[child]
    if node.kind == KLIT and abs(node.lit) == var:
        return node.lit > 0
    if node.kind == KAND:
        for c in node.children:
            sub = g.nodes[c]
            if sub.kind == KLIT and abs(sub.lit) == var:
                return sub.lit > 0
    return None


def _check_or(g: DdnnfGraph, nid: int, node: Node, report: Report) -> None:
    if len(node.children) != 2:
        report.violations.append(
            Violation("determinism", nid, message=f"Or node with {len(node.children)} children")
        )
        return
    hi, lo = node.children
    candidates = [node.decision] if node.decision else variables_of(g.scopes()[hi] & g.scopes()[lo])
    for var in candidates:
        pols = [_top_level_polarity(g, c, var) for c in node.children]
        if None not in pols and pols[0] != pols[1]:
            return
    report.violations.append(
        Violation(
            "determinism",
            nid,
            message="children do not assert complementary literals of the decision variable",
        )
    )


def validate(
    g: DdnnfGraph,
    level: str = "structural",
    table=None,
    enum_bound: int = 4096,
) -> Report:
    """Check the structural d-DNNF properties, optionally with the theory.

    Structural: topological well-formedness, determinism (each Or's children
    carry complementary top-level literals of the decision variable),
    decomposability (And children have pairwise disjoint atom scopes) and
    totality (Or children have equal atom scopes).  Theory level additionally
    enumerates every captured assignment (count must stay within enum_bound)
    and checks its linear literals for feasibility.
    """
    if level not in ("structural", "theory"):
        raise ValueError(f"unknown validation level: {level}")
    report = Report(level)
    scopes = g.scopes()
    for nid, node in enumerate(g.nodes):
        if any(c >= nid for c in node.children):
            report.violations.append(Violation("dag", nid, message="child after parent"))
            return report
        if node.kind == KOR:
            _check_or(g, nid, node, report)
        violation = _scope_violation(scopes, nid, node)
        if violation is not None:
            report.violations.append(violation)

    if level == "theory" and not any(v.kind in ("totality", "decomposability") for v in report.violations):
        if table is None:
            if g.amap is None:
                raise ValueError("theory validation needs an atom table")
            table = g.amap
        n = count(g)
        if n > enum_bound:
            raise DdnnfError(f"count {n} exceeds enumeration bound {enum_bound}")
        for assignment in enumerate_models(g):
            lits = [var if val else -var for var, val in sorted(assignment.items()) if table.is_linear_var(var)]
            if lits and not lra.check_feasible(table, lits).sat:
                report.violations.append(
                    Violation(
                        "theory",
                        assignment=tuple(sorted(assignment.items())),
                        message="captured assignment is theory-unsatisfiable",
                    )
                )
    return report


def _scope_violation(scopes: list[int], nid: int, node: Node) -> Violation | None:
    """Decomposability of an And node or totality of a binary Or node."""
    if node.kind == KAND:
        seen = 0
        for c in node.children:
            mask = scopes[c]
            if seen & mask:
                shared = variables_of(seen & mask)
                return Violation("decomposability", nid, message=f"And children share atoms {shared}")
            seen |= mask
    elif node.kind == KOR and len(node.children) == 2:
        if scopes[node.children[0]] != scopes[node.children[1]]:
            return Violation("totality", nid, message="Or children have unequal atom scopes")
    return None


def _totality_gate(g: DdnnfGraph) -> None:
    if g._total:
        return
    scopes = g.scopes()
    for nid, node in enumerate(g.nodes):
        if node.kind == KOR and len(node.children) != 2:
            raise NotTotalError(f"Or node {nid} has {len(node.children)} children")
        violation = _scope_violation(scopes, nid, node)
        if violation is not None:
            raise NotTotalError(f"node {nid}: {violation.message}")
    g._total = True


# ---------------------------------------------------------------------------
# queries


def _fold(g: DdnnfGraph, weights: Mapping[int, int]) -> int:
    """The one bottom-up pass behind the counting queries: a literal weighs
    ``weights[lit]`` (absent: 1), an And multiplies and an Or adds."""
    _totality_gate(g)
    memo: list[int] = []
    for node in g.nodes:
        kind = node.kind
        if kind == KLIT:
            memo.append(weights.get(node.lit, 1))
        elif kind == KAND:
            value = 1
            for c in node.children:
                value *= memo[c]
            memo.append(value)
        elif kind == KOR:
            hi, lo = node.children  # the gate admits binary Or nodes only
            memo.append(memo[hi] + memo[lo])
        else:
            memo.append(1 if kind == KTRUE else 0)
    return memo[g.root]


def count(g: DdnnfGraph) -> int:
    """Number of total truth assignments over atom variables captured by g."""
    return _fold(g, {})


@dataclass
class WeightMap:
    """Nonnegative rational weight per signed literal; unspecified weigh 1."""

    weights: dict[int, Fraction] = field(default_factory=dict)

    def set(self, var: int, positive: bool, value: Fraction | int) -> None:
        value = Fraction(value)
        if value < 0:
            raise ValueError("weights must be nonnegative")
        self.weights[var if positive else -var] = value


def weighted_count(g: DdnnfGraph, w: WeightMap) -> Fraction:
    """Sum over the captured assignments of the product of their atom
    literals' weights; auxiliaries weigh 1.

    The pass runs on integers: each atom literal of the root scope weighs
    its weight times D, the lcm of the weight denominators.  Totality makes
    every assignment set each root-scope variable exactly once, so the
    integer result is the weighted count times D to the scope's size.
    """
    scope = variables_of(g.scopes()[g.root])
    den = math.lcm(*(value.denominator for value in w.weights.values()))
    scaled = {}
    for var in scope:
        for lit in (var, -var):
            value = w.weights.get(lit, 1)
            scaled[lit] = value.numerator * (den // value.denominator)
    return Fraction(_fold(g, scaled), den ** len(scope))


class Model(Mapping):
    """One captured assignment, read-only: atom variable -> truth value.

    The models of one enumeration share ``index`` (variable -> position, in
    ascending variable order) and each keeps only its own values, one byte a
    variable.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict[int, int], values: bytes) -> None:
        self._index = index
        self._values = values

    def __getitem__(self, var: int) -> bool:
        return self._values[self._index[var]] == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"Model({dict(self)!r})"


def enumerate_models(g: DdnnfGraph, cap: int | None = None) -> list[Model]:
    """Distinct total assignments over atom variables captured by g.

    A depth-first walk with explicit stacks: ``todo`` is the work pending on
    the current path, a linked list of (node, rest); an And puts its children
    on it in order, and an Or leaves its second child with the pending work
    on ``choices`` for later.  So an Or yields its first child's models
    before its second's, and an And's last child varies fastest.  Totality
    makes every completed path assign exactly the root scope, so one value
    buffer serves every path and each model is a copy of it.
    """
    _totality_gate(g)
    nodes, num_atom_vars = g.nodes, g.num_atom_vars
    index = {var: pos for pos, var in enumerate(variables_of(g.scopes()[g.root]))}
    values = bytearray(len(index))
    models: list[Model] = []
    choices: list[tuple[int, tuple | None]] = [(g.root, None)]
    while choices and (cap is None or len(models) < cap):
        nid, todo = choices.pop()
        while True:
            node = nodes[nid]
            kind = node.kind
            if kind == KOR:
                choices.append((node.children[1], todo))
                nid = node.children[0]
                continue
            if kind == KAND:
                children = node.children
                for c in children[:0:-1]:
                    todo = (c, todo)
                nid = children[0]
                continue
            if kind == KFALSE:
                break
            if kind == KLIT and abs(node.lit) <= num_atom_vars:
                values[index[abs(node.lit)]] = node.lit > 0
            if todo is None:
                models.append(Model(index, bytes(values)))
                break
            nid, todo = todo
    return models


# ---------------------------------------------------------------------------
# condensation (export-time view that omits theory-implied literals)


def condense(g: DdnnfGraph) -> DdnnfGraph:
    """Drop theory-implied literal nodes; unary Ands collapse.

    The result is for export and inspection only: it loses totality, so
    counting on it is rejected.
    """
    if not g.has_tags:
        raise NotTaggedError("graph carries no implied-literal provenance")
    builder = GraphBuilder(g.num_vars, g.num_atom_vars)
    remap: dict[int, int | None] = {}
    for nid, node in enumerate(g.nodes):
        if node.kind == KTRUE:
            remap[nid] = builder.true_id
        elif node.kind == KFALSE:
            remap[nid] = builder.false_id
        elif node.kind == KLIT:
            remap[nid] = None if node.implied else builder.lit(node.lit)
        else:
            kept = [remap[c] for c in node.children if remap[c] is not None]
            if node.kind == KAND:
                remap[nid] = builder.and_node(kept)
            elif len(kept) == 2:
                remap[nid] = builder.or_node(node.decision, kept[0], kept[1])
            elif len(kept) == 1:  # cannot happen for compiler output
                remap[nid] = kept[0]
            else:
                remap[nid] = builder.true_id
    root = remap[g.root]
    return builder.finish(builder.true_id if root is None else root, g.amap, has_tags=True)


# ---------------------------------------------------------------------------
# c2d-compatible file format


def export_nnf(g: DdnnfGraph, amap: AtomTable | None = None) -> tuple[str, str]:
    """Serialize to (nnf text, atom sidecar text).

    nnf: header ``nnf V E n``, then one node per line in topological order:
    ``L l`` / ``A c i...`` / ``O j c i...`` with 0-based indices; True is
    ``A 0`` and False is ``O 0 0``.  Sidecar: ``<var> <atom>`` per atom
    variable, plus ``c implied <node>`` tags and a ``c tagged`` marker.
    """
    if amap is None:
        amap = g.amap
    lines = []
    implied_nodes = []
    for nid, node in enumerate(g.nodes):
        if node.kind == KTRUE:
            lines.append("A 0")
        elif node.kind == KFALSE:
            lines.append("O 0 0")
        elif node.kind == KLIT:
            lines.append(f"L {node.lit}")
            if node.implied:
                implied_nodes.append(nid)
        elif node.kind == KAND:
            lines.append(f"A {len(node.children)} " + " ".join(map(str, node.children)))
        else:
            lines.append(f"O {node.decision} {len(node.children)} " + " ".join(map(str, node.children)))
    header = f"nnf {len(g.nodes)} {g.edge_count} {g.num_vars}"
    nnf_text = "\n".join([header] + lines) + "\n"

    atom_lines = []
    for var in range(1, g.num_atom_vars + 1):
        if amap is not None and var <= len(amap):
            try:
                atom_lines.append(f"{var} {atom_to_str(amap.atom(var), amap.real_names)}")
            except ValueError as exc:
                raise FormatError(f"{exc}: a .atoms line cannot hold it") from None
        else:
            atom_lines.append(f"{var} bool v{var}")
    if g.has_tags:
        atom_lines.append("c tagged")
    for nid in implied_nodes:
        atom_lines.append(f"c implied {nid}")
    atoms_text = "\n".join(atom_lines) + ("\n" if atom_lines else "")
    return nnf_text, atoms_text


_INT = re.compile(r"-?[0-9]+")
# a sidecar field: non-whitespace, where a name between bars may hold
# whitespace, as ``atom_to_str`` writes it; an unclosed bar is a field of its own
_FIELD = re.compile(r"(?:[^\s|]|\|[^|]*\|)+|\S")


def _int(text: str, message: str) -> int:
    """text as an integer of ASCII digits after an optional '-'; anything
    else is a ``FormatError`` with ``message``."""
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() reads
        pass
    raise FormatError(message)


def _symbol(field: str, line: str) -> str:
    """The name a sidecar field writes, bare or between bars."""
    if len(field) > 1 and field[0] == field[-1] == "|" and "|" not in field[1:-1]:
        return field[1:-1]
    if not field or "|" in field:
        raise FormatError(f"bad symbol {field!r} in {line!r}")
    return field


def _intern_atom_line(line: str, table: AtomTable) -> int:
    """Intern the atom of a ``<var> <atom>`` sidecar line in the parser's
    canonical form; returns its id.  A real named twice and a constant atom
    are format errors."""
    parts = _FIELD.findall(line)
    if len(parts) < 3:
        raise FormatError(f"bad atom line: {line!r}")
    kind = parts[1]
    if kind == BOOL:
        if len(parts) != 3:
            raise FormatError(f"bad bool atom line: {line!r}")
        return table.intern_bool(_symbol(parts[2], line))
    if kind not in (LEQ, EQ):
        raise FormatError(f"unknown atom kind {kind!r}")
    coeffs: dict[int, int] = {}
    for chunk in parts[2:-1]:
        if "*" not in chunk:
            raise FormatError(f"bad coefficient {chunk!r} in {line!r}")
        c, name = chunk.split("*", 1)
        rid = table.real_var(_symbol(name, line))
        if rid in coeffs:
            raise FormatError(f"real {name!r} named twice in {line!r}")
        coeffs[rid] = _int(c, f"bad coefficient {chunk!r}")
    const = _int(parts[-1], f"bad constant in {line!r}")
    canon = (canonical_leq if kind == LEQ else canonical_eq)(LinTerm.make(coeffs, const))
    if isinstance(canon, bool):
        raise FormatError(f"constant atom in {line!r}")
    return table.intern_linear(kind, canon)


def import_nnf(nnf_text: str, atoms_text: str) -> tuple[DdnnfGraph, AtomTable]:
    """Inverse of export_nnf, up to node reordering; counts are preserved.

    Sidecar atoms are interned in variable order, so atom id i is variable i;
    two variables with the same atom are a format error, and so are a
    ``c implied`` tag that names no ``L`` line or other than one node, a
    header edge count other than the file's, and more sidecar atoms than
    header variables.
    """
    implied_file_idx: set[int] = set()
    tagged = False
    atom_lines: dict[int, str] = {}
    for raw in atoms_text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c "):
            parts = line.split()
            if parts[:2] == ["c", "tagged"]:
                tagged = True
            elif parts[:2] == ["c", "implied"]:
                if len(parts) != 3:
                    raise FormatError(f"bad implied tag: {line!r}")
                implied_file_idx.add(_int(parts[2], f"bad implied tag: {line!r}"))
            continue
        var = _int(line.split()[0], f"bad atom line: {line!r}")
        if var in atom_lines:
            raise FormatError(f"variable {var} mapped twice")
        atom_lines[var] = line
    if sorted(atom_lines) != list(range(1, len(atom_lines) + 1)):
        raise FormatError("atom variables are not contiguous from 1")
    table = AtomTable()
    for var in range(1, len(atom_lines) + 1):
        aid = _intern_atom_line(atom_lines[var], table)
        if aid != var:
            raise FormatError(f"variable {var} has the atom of variable {aid}")

    lines = [l.strip() for l in nnf_text.splitlines() if l.strip()]
    if not lines:
        raise FormatError("empty nnf input")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "nnf":
        raise FormatError(f"bad header: {lines[0]!r}")
    v_decl, e_decl, n_vars = (_int(field, f"bad header: {lines[0]!r}") for field in header[1:])
    if len(lines) - 1 != v_decl:
        raise FormatError(f"header declares {v_decl} nodes, found {len(lines) - 1}")
    if len(table) > n_vars:
        raise FormatError(f"sidecar names {len(table)} atoms, header declares {n_vars} variables")
    for k in sorted(implied_file_idx):
        if not (0 <= k < v_decl and lines[1 + k].startswith("L")):
            raise FormatError(f"c implied {k} names no L line")

    num_atom_vars = len(table) or n_vars
    builder = GraphBuilder(n_vars, num_atom_vars)
    ids: list[int] = []
    edges = 0

    def child(tok: str) -> int:
        idx = _int(tok, f"bad child index {tok!r}")
        if not 0 <= idx < len(ids):
            raise FormatError(f"child index {idx} out of range")
        return ids[idx]

    for file_idx, line in enumerate(lines[1:]):
        parts = line.split()
        if parts[0] == "L" and len(parts) == 2:
            lit = _int(parts[1], f"bad literal line: {line!r}")
            if lit == 0 or abs(lit) > n_vars:
                raise FormatError(f"literal {lit} out of range")
            ids.append(builder.lit(lit, implied=file_idx in implied_file_idx))
        elif parts[0] == "A" and len(parts) >= 2:
            c = _int(parts[1], f"bad And line: {line!r}")
            if len(parts) != 2 + c:
                raise FormatError(f"And arity mismatch: {line!r}")
            edges += c
            ids.append(builder.and_node([child(t) for t in parts[2:]]))
        elif parts[0] == "O" and len(parts) >= 3:
            decision, c = (_int(field, f"bad Or line: {line!r}") for field in parts[1:3])
            if len(parts) != 3 + c:
                raise FormatError(f"Or arity mismatch: {line!r}")
            edges += c
            if c == 0:
                ids.append(builder.false_id)
            elif c == 2:
                ids.append(builder.or_node(decision, child(parts[3]), child(parts[4])))
            else:
                raise FormatError(f"Or nodes must have 0 or 2 children: {line!r}")
        else:
            raise FormatError(f"unknown node line: {line!r}")

    if not ids:
        raise FormatError("nnf file has no nodes")
    if edges != e_decl:
        raise FormatError(f"header declares {e_decl} edges, found {edges}")
    graph = builder.finish(ids[-1], table, has_tags=tagged or bool(implied_file_idx))
    return graph, table
