"""QF_LRA frontend: rational linear terms, canonical atoms, formula trees and
an SMT-LIB2 subset parser.

Terms are integers from the tokenizer on: a numeral is read as an integer
numerator and denominator, and a term is integer numerators over one
positive denominator.  A linear atom stores its term as the canonical
primitive integer row (integer coefficients and constant with gcd 1), which
the theory solver reads as it is.

Atoms are interned: two comparisons that canonicalize to the same linear
constraint share one atom id.  Strict inequalities are stored as negated
non-strict atoms (t < 0 is the negation of -t <= 0), so a constraint and its
complement share a single Boolean variable downstream.  A comparison between
two constants folds to its truth value, which the parser reads as true or
false.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping


class SmtError(Exception):
    """Base class for frontend errors."""


class SmtSyntaxError(SmtError):
    """Malformed s-expression or ill-sorted term."""


class UnsupportedFeatureError(SmtError):
    """Input is valid SMT-LIB but outside the supported QF_LRA subset."""


class UndeclaredSymbolError(SmtError):
    """A symbol is used before being declared."""


# ---------------------------------------------------------------------------
# linear terms


@dataclass(frozen=True)
class LinTerm:
    """A rational linear expression (sum(c_i * x_i) + const) / den, as
    integer numerators over one positive denominator.

    ``coeffs`` holds (real-variable id, numerator) pairs with strictly
    increasing ids and no zero numerators, and ``den`` is the least
    denominator, which makes the representation canonical and hashable.  A
    canonical atom's term has ``den == 1``: it is its own integer row.
    """

    coeffs: tuple[tuple[int, int], ...]
    const: int
    den: int = 1

    @staticmethod
    def make(coeffs: Mapping[int, Fraction | int], const: Fraction | int = 0) -> "LinTerm":
        """The term of int or ``Fraction`` coefficients."""
        den = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
        items = sorted((v, c.numerator * (den // c.denominator)) for v, c in coeffs.items() if c)
        const = const.numerator * (den // const.denominator)
        g = math.gcd(den, const, *(c for _, c in items))
        return LinTerm(tuple((v, c // g) for v, c in items), const // g, den // g)

    @staticmethod
    def constant(value: Fraction | int) -> "LinTerm":
        return LinTerm.make({}, value)

    @cached_property
    def real_vars(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.coeffs)


# A term as the parser builds it: (nums, const, den) for
# (sum(nums[v] * v) + const) / den, with den > 0 and no zero in nums.  Only
# an atom's term is made canonical, as a ``LinTerm`` (``_primitive``).
_Sum = tuple[dict[int, int], int, int]


def _add(terms: list[_Sum]) -> _Sum:
    den = math.lcm(*(d for _, _, d in terms))
    nums: dict[int, int] = {}
    const = 0
    for t_nums, t_const, t_den in terms:
        k = den // t_den
        const += k * t_const
        for v, c in t_nums.items():
            nums[v] = nums.get(v, 0) + k * c
    return {v: c for v, c in nums.items() if c}, const, den


def _scaled(term: _Sum, p: int, q: int) -> _Sum:
    """``term * p / q`` for q > 0."""
    if p == 0:
        return {}, 0, 1
    nums, const, den = term
    return {v: c * p for v, c in nums.items()}, const * p, den * q


# ---------------------------------------------------------------------------
# atoms and literals

BOOL = "bool"
LEQ = "leq"  # term <= 0
EQ = "eq"  # term = 0


@dataclass(frozen=True)
class Atom:
    id: int
    kind: str
    name: str | None = None
    term: LinTerm | None = None

    @property
    def is_linear(self) -> bool:
        return self.kind in (LEQ, EQ)


@dataclass(frozen=True)
class Literal:
    """The leaf of a formula tree.  Past the parser a literal is the signed
    atom id ``signed``: ``a`` for atom a, ``-a`` for its negation."""

    atom: int
    positive: bool

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    @property
    def signed(self) -> int:
        return self.atom if self.positive else -self.atom


class AtomTable:
    """Interning table assigning dense ids 1..n in the order atoms are first
    interned."""

    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self._ids: dict[object, int] = {}
        self.real_names: list[str] = []
        self._real_ids: dict[str, int] = {}
        self.theory_rows: dict = {}  # signed literal -> its rows, built once by the theory solver

    def __len__(self) -> int:
        return len(self.atoms)

    def real_var(self, name: str) -> int:
        rid = self._real_ids.get(name)
        if rid is None:
            rid = len(self.real_names)
            self.real_names.append(name)
            self._real_ids[name] = rid
        return rid

    def atom(self, aid: int) -> Atom:
        if not 1 <= aid <= len(self.atoms):
            raise IndexError(f"no atom {aid}: ids run from 1 to {len(self.atoms)}")
        return self.atoms[aid - 1]

    def is_linear_var(self, var: int) -> bool:
        """Is var a linear atom?  Ids without an atom count as propositional."""
        return 1 <= var <= len(self.atoms) and self.atoms[var - 1].is_linear

    def linear_vars(self) -> list[int]:
        return [a.id for a in self.atoms if a.is_linear]

    def intern_bool(self, name: str) -> int:
        return self._intern((BOOL, name), lambda aid: Atom(aid, BOOL, name=name))

    def intern_linear(self, kind: str, term: LinTerm) -> int:
        if kind not in (LEQ, EQ):
            raise ValueError(f"not a linear atom kind: {kind}")
        return self._intern((kind, term), lambda aid: Atom(aid, kind, term=term))

    def _intern(self, key: object, build) -> int:
        aid = self._ids.get(key)
        if aid is None:
            aid = len(self.atoms) + 1
            self.atoms.append(build(aid))
            self._ids[key] = aid
        return aid


# ---------------------------------------------------------------------------
# canonicalization

def _primitive(kind: str, items, const: int):
    """Canonical form of ``term REL 0`` (REL ``<=`` for LEQ, ``=`` for EQ),
    for the term of integer ``items`` and ``const`` over a positive
    denominator: the term divided by the gcd of its entries, with the first
    coefficient positive for EQ.  A bool when there are no items."""
    if not items:
        return const <= 0 if kind == LEQ else const == 0
    g = math.gcd(const, *(c for _, c in items))
    if kind == EQ and items[0][1] < 0:
        g = -g
    if g != 1:
        items = tuple((v, c // g) for v, c in items)
        const //= g
    return LinTerm(tuple(items), const)


def canonical_leq(term: LinTerm):
    """Canonical form of ``term <= 0``; a bool when the term is constant."""
    return _primitive(LEQ, term.coeffs, term.const)


def canonical_eq(term: LinTerm):
    """Canonical form of ``term = 0``: first nonzero coefficient positive."""
    return _primitive(EQ, term.coeffs, term.const)


# operator -> (atom kind, literal polarity); >= and < swap their sides first
_CMP_KINDS = {
    "<=": (LEQ, True),
    ">=": (LEQ, True),
    "<": (LEQ, False),
    ">": (LEQ, False),
    "=": (EQ, True),
    "!=": (EQ, False),
    "distinct": (EQ, False),
}


def normalize_comparison(table: AtomTable, op: str, lhs: LinTerm, rhs: LinTerm) -> Literal | bool:
    """Turn ``lhs op rhs`` into a literal over a canonical interned atom.

    <= and >= map to positive LinLeq literals, < and > to negated ones via
    t < 0 == not(-t <= 0), = to a positive LinEq and != to a negated LinEq.
    A comparison between constants is its truth value and interns no atom.
    """
    return _comparison(table, op, *((dict(t.coeffs), t.const, t.den) for t in (lhs, rhs)))


def _comparison(table: AtomTable, op: str, lhs: _Sum, rhs: _Sum) -> Literal | bool:
    if op not in _CMP_KINDS:
        raise ValueError(f"unknown comparison operator: {op}")
    kind, positive = _CMP_KINDS[op]
    if op in (">=", "<"):
        lhs, rhs = rhs, lhs
    nums, const, _ = _add([lhs, _scaled(rhs, -1, 1)])  # lhs - rhs, times its positive denominator
    canon = _primitive(kind, sorted(nums.items()), const)
    if isinstance(canon, bool):
        return canon == positive
    return Literal(table.intern_linear(kind, canon), positive)


def _symbol_to_str(name: str) -> str:
    """A symbol as one whitespace-free field: bare, or ``|name|``, the form
    ``parse_smt2`` reads, when it is empty or holds whitespace.  A name
    holding a '|' or a line break (anything ``str.splitlines`` breaks at)
    fits no such field and is a ``ValueError``."""
    if "|" in name or len(f"|{name}|".splitlines()) > 1:
        raise ValueError(f"symbol {name!r} holds a '|' or a line break")
    return name if name and not any(ch.isspace() for ch in name) else f"|{name}|"


def atom_to_str(atom: Atom, real_names: list[str]) -> str:
    """Canonical one-line serialization, shared by DIMACS and sidecar files;
    a ``ValueError`` for a symbol that no line can hold."""
    if atom.kind == BOOL:
        return f"bool {_symbol_to_str(atom.name)}"
    parts = [atom.kind]
    for v, c in atom.term.coeffs:
        parts.append(f"{c}*{_symbol_to_str(real_names[v])}")
    parts.append(str(atom.term.const))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# formula trees


class FNode:
    __slots__ = ()


@dataclass(frozen=True)
class FTrue(FNode):
    pass


@dataclass(frozen=True)
class FFalse(FNode):
    pass


@dataclass(frozen=True)
class FLit(FNode):
    lit: Literal


@dataclass(frozen=True)
class FNot(FNode):
    child: FNode


@dataclass(frozen=True)
class FAnd(FNode):
    children: tuple[FNode, ...]


@dataclass(frozen=True)
class FOr(FNode):
    children: tuple[FNode, ...]


@dataclass(frozen=True)
class FImplies(FNode):
    left: FNode
    right: FNode


@dataclass
class Formula:
    root: FNode
    table: AtomTable


def atoms_of(f: Formula) -> tuple[Atom, ...]:
    """Atom table in parse order (see ``parse_smt2``); ids are dense 1..n."""
    return tuple(f.table.atoms)


def evaluate_formula(node: FNode, assignment: Mapping[int, bool]) -> bool:
    """The value of ``node`` under ``assignment`` (atom id to value).

    The tree is walked with an explicit stack, so depth costs no recursion.
    An And, Or or Implies stops at the first child that decides it; Implies
    reads as Or of its negated left and its right.
    """
    frames: list[list] = []  # [node, its children, the child being evaluated]
    while True:
        while True:  # down to a leaf, pushing a frame per inner node
            if isinstance(node, FLit):
                value = assignment[node.lit.atom]
                value = value if node.lit.positive else not value
                break
            if isinstance(node, FNot):
                children = (node.child,)
            elif isinstance(node, (FAnd, FOr)):
                children = node.children
            elif isinstance(node, FImplies):
                children = (node.left, node.right)
            elif isinstance(node, (FTrue, FFalse)):
                children = ()
            else:
                raise TypeError(f"not a formula node: {node!r}")
            if not children:  # true and the empty And; false and the empty Or
                value = isinstance(node, (FTrue, FAnd))
                break
            frames.append([node, children, 0])
            node = children[0]
        while frames:  # up, with value the value of the top frame's current child
            frame = frames[-1]
            parent, children, i = frame
            if isinstance(parent, FNot) or (isinstance(parent, FImplies) and i == 0):
                value = not value
            if i + 1 < len(children) and value == isinstance(parent, FAnd):  # not decided yet
                frame[2] = i + 1
                node = children[i + 1]
                break
            frames.pop()
        else:
            return value


# ---------------------------------------------------------------------------
# SMT-LIB2 subset parser

_IGNORED_COMMANDS = {"set-info", "set-option", "check-sat", "exit", "get-model"}
_UNSUPPORTED_HEADS = {
    "let",
    "ite",
    "forall",
    "exists",
    "!",
    "push",
    "pop",
    "define-fun",
}


# A token is the group: a parenthesis, a string literal, a quoted symbol
# with its bars, a plain token, or a '"' or '|' that nothing closes.  A
# comment matches outside the group and reads as ''; whitespace does not
# match at all.
_TOKEN = re.compile(r';[^\n]*|([()]|"[^"]*"|\|[^|]*\||[^\s();"|]+|["|])')


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, with '' for each comment.  A quoted symbol
    keeps its bars, so ``|(|`` is not a parenthesis; ``_read_sexprs``
    strips them, so ``|x|`` and ``x`` name one symbol."""
    tokens = _TOKEN.findall(text)
    # most texts hold neither character, and the text is the faster scan
    unclosed = [tok for tok in ('"', "|") if tok in text and tok in tokens]
    if unclosed:
        what = "string literal" if min(unclosed, key=tokens.index) == '"' else "quoted symbol"
        raise SmtSyntaxError(f"unterminated {what}")
    return tokens


# No term nested this deep converts (the converters recurse per level), and
# hashing a much deeper tuple would overflow the C stack.
_MAX_DEPTH = 10_000


def _read_sexprs(tokens: list[str]):
    """The s-expressions of ``tokens``, each list closed as a tuple."""
    exprs: list = []
    open_lists: list[list] = []  # explicit stack, so nesting depth costs no recursion
    for tok in tokens:
        if tok == "(":
            if len(open_lists) == _MAX_DEPTH:
                raise UnsupportedFeatureError("terms nested too deeply")
            open_lists.append([])
            continue
        if tok == ")":
            if not open_lists:
                raise SmtSyntaxError("unexpected ')'")
            tok = tuple(open_lists.pop())
        elif not tok:  # a comment
            continue
        elif tok[0] == "|":
            tok = tok[1:-1]
        (open_lists[-1] if open_lists else exprs).append(tok)
    if open_lists:
        raise SmtSyntaxError("unbalanced parenthesis")
    return exprs


_DIGITS = frozenset("0123456789")


def _numeral(tok: str) -> tuple[int, int] | None:
    """(numerator, denominator) of a decimal numeral of ASCII digits."""
    body = tok[1:] if tok.startswith("-") else tok
    a, dot, b = body.partition(".")
    if not (a and _DIGITS.issuperset(a) and (not dot or (b and _DIGITS.issuperset(b)))):
        return None
    try:
        num = int(a + b)
    except ValueError as exc:  # more digits than int() reads
        raise SmtSyntaxError(f"bad numeral {tok[:40]!r}") from exc
    return (-num if tok.startswith("-") else num), 10 ** len(b)


_END = object()


def _show(expr, limit: int = 40) -> str:
    """An s-expression or token written back as text, cut after ``limit``
    characters, for error messages.  It reads no more of ``expr`` than it
    shows, so neither size nor depth costs time or recursion."""
    parts: list[str] = []
    size = 0
    stack = [iter((expr,))]
    while stack and size <= limit:
        item = next(stack[-1], _END)
        if item is _END:
            stack.pop()
            text = ")" if stack else ""
        elif isinstance(item, tuple):
            stack.append(iter(item))
            text = "("
        else:
            text = str(item)
        if parts and text not in ("", ")") and not parts[-1].endswith("("):
            text = " " + text
        parts.append(text)
        size += len(text)
    out = "".join(parts)
    return out if not stack and size <= limit else out[:limit] + "..."


class _Parser:
    def __init__(self) -> None:
        self.table = AtomTable()
        self.sorts: dict[str, str] = {}
        self.asserts: list[FNode] = []
        # comparison -> its node; a repeat would intern nothing new
        self.comparisons: dict[tuple, FNode] = {}

    def run(self, text: str) -> Formula:
        try:
            for expr in _read_sexprs(_tokenize(text)):
                self.command(expr)
        except RecursionError:  # term conversion recurses once per nesting level
            raise UnsupportedFeatureError("terms nested too deeply") from None
        if not self.asserts:
            root: FNode = FTrue()
        elif len(self.asserts) == 1:
            root = self.asserts[0]
        else:
            root = FAnd(tuple(self.asserts))
        return Formula(root, self.table)

    def command(self, expr) -> None:
        if not isinstance(expr, tuple) or not expr:
            raise SmtSyntaxError(f"expected a command, got {_show(expr)!r}")
        head = expr[0]
        if not isinstance(head, str):
            raise SmtSyntaxError(f"command head must be a symbol, got {_show(head)!r}")
        if head in _IGNORED_COMMANDS:
            return
        if head == "set-logic":
            if len(expr) != 2 or expr[1] != "QF_LRA":
                raise UnsupportedFeatureError(f"logic {_show(expr[1:])} is not QF_LRA")
            return
        if head == "declare-const":
            if len(expr) != 3:
                raise SmtSyntaxError("declare-const expects a name and a sort")
            self.declare(expr[1], expr[2])
            return
        if head == "declare-fun":
            if len(expr) != 4:
                raise SmtSyntaxError("declare-fun expects name, arguments and sort")
            if expr[2] != ():
                raise UnsupportedFeatureError("uninterpreted functions of arity > 0")
            self.declare(expr[1], expr[3])
            return
        if head == "assert":
            if len(expr) != 2:
                raise SmtSyntaxError("assert expects exactly one term")
            self.asserts.append(self.bool_term(expr[1]))
            return
        raise UnsupportedFeatureError(f"unsupported command {_show(head)}")

    def declare(self, name, sort) -> None:
        if not isinstance(name, str):
            raise SmtSyntaxError(f"bad symbol {_show(name)!r}")
        if name in ("true", "false") or _numeral(name) is not None:
            raise SmtSyntaxError(f"cannot declare {_show(name)!r}: it reads as a constant")
        if sort not in ("Real", "Bool"):
            raise UnsupportedFeatureError(f"sort {_show(sort)} (only Real and Bool)")
        if name in self.sorts:
            raise SmtSyntaxError(f"symbol {_show(name)} declared twice")
        self.sorts[name] = sort

    def bool_term(self, expr) -> FNode:
        if isinstance(expr, str):
            if expr == "true":
                return FTrue()
            if expr == "false":
                return FFalse()
            sort = self.sorts.get(expr)
            if sort is None:
                if _numeral(expr) is not None:
                    raise SmtSyntaxError(f"number {_show(expr)} where a Boolean term is expected")
                raise UndeclaredSymbolError(f"undeclared symbol {_show(expr)!r}")
            if sort != "Bool":
                raise SmtSyntaxError(f"{_show(expr)} is Real, expected a Boolean term")
            return FLit(Literal(self.table.intern_bool(expr), True))
        if not expr:
            raise SmtSyntaxError("empty application")
        head = expr[0]
        args = expr[1:]
        if not isinstance(head, str):
            raise SmtSyntaxError(f"term head must be a symbol, got {_show(head)!r}")
        if head in _UNSUPPORTED_HEADS:
            raise UnsupportedFeatureError(f"unsupported construct {_show(head)!r}")
        if head == "and" or head == "or":
            if not args:
                raise SmtSyntaxError(f"{head} expects at least one argument")
            children = tuple(self.bool_term(a) for a in args)
            return FAnd(children) if head == "and" else FOr(children)
        if head == "not":
            if len(args) != 1:
                raise SmtSyntaxError("not expects one argument")
            return FNot(self.bool_term(args[0]))
        if head == "=>":
            if len(args) < 2:
                raise SmtSyntaxError("=> expects at least two arguments")
            node = self.bool_term(args[-1])
            for a in reversed(args[:-1]):
                node = FImplies(self.bool_term(a), node)
            return node
        if head in ("<", ">", "<=", ">=", "=", "distinct"):
            node = self.comparisons.get(expr)
            if node is not None:
                return node
            if len(args) != 2:
                raise UnsupportedFeatureError(f"chained {head} comparison")
            if head == "=" and self.is_bool_expr(args[0]):
                raise UnsupportedFeatureError("Boolean equality")
            lit = _comparison(self.table, head, self.real_term(args[0]), self.real_term(args[1]))
            node = (FTrue() if lit else FFalse()) if isinstance(lit, bool) else FLit(lit)
            self.comparisons[expr] = node
            return node
        if head in ("+", "-", "*", "/"):
            self.real_term(expr)  # raises on nonlinearity first
            raise SmtSyntaxError(f"arithmetic term ({head} ...) where a Boolean term is expected")
        raise UndeclaredSymbolError(f"undeclared symbol {_show(head)!r}")

    def is_bool_expr(self, expr) -> bool:
        if isinstance(expr, str):
            return expr in ("true", "false") or self.sorts.get(expr) == "Bool"
        return bool(expr) and expr[0] in ("and", "or", "not", "=>", "<", ">", "<=", ">=", "=", "distinct")

    def real_term(self, expr) -> _Sum:
        if isinstance(expr, str):
            num = _numeral(expr)
            if num is not None:
                return {}, *num
            sort = self.sorts.get(expr)
            if sort is None:
                raise UndeclaredSymbolError(f"undeclared symbol {_show(expr)!r}")
            if sort != "Real":
                raise SmtSyntaxError(f"{_show(expr)} is Bool, expected a Real term")
            return {self.table.real_var(expr): 1}, 0, 1
        if not expr:
            raise SmtSyntaxError("empty application")
        head = expr[0]
        args = expr[1:]
        if not isinstance(head, str):
            raise SmtSyntaxError(f"term head must be a symbol, got {_show(head)!r}")
        if head in _UNSUPPORTED_HEADS:
            raise UnsupportedFeatureError(f"unsupported construct {_show(head)!r}")
        if head in ("+", "-", "*") and not args:
            raise SmtSyntaxError(f"{head} expects at least one argument")
        if head == "+":
            return _add([self.real_term(a) for a in args])
        if head == "-":
            terms = [self.real_term(a) for a in args]
            if len(terms) == 1:
                return _scaled(terms[0], -1, 1)
            return _add(terms[:1] + [_scaled(t, -1, 1) for t in terms[1:]])
        if head == "*":
            terms = [self.real_term(a) for a in args]
            nonconst = [t for t in terms if t[0]]
            if len(nonconst) > 1:
                raise UnsupportedFeatureError("nonlinear term (product of variables)")
            p = q = 1
            for nums, const, den in terms:
                if not nums:
                    p *= const
                    q *= den
            return _scaled(nonconst[0], p, q) if nonconst else ({}, p, q)
        if head == "/":
            if len(args) != 2:
                raise SmtSyntaxError("/ expects two arguments")
            num = self.real_term(args[0])
            den_nums, p, q = self.real_term(args[1])
            if den_nums:
                raise UnsupportedFeatureError("division by a non-constant")
            if p == 0:
                raise SmtSyntaxError("division by zero")
            return _scaled(num, q if p > 0 else -q, abs(p))
        raise SmtSyntaxError(f"{_show(head)} is not a Real operator")


def parse_smt2(text: str) -> Formula:
    """Parse the supported SMT-LIB2 subset into a Formula.

    The result is the conjunction of all assert commands.  Atoms are
    canonical and interned in the order a walk of each assert meets them:
    arguments left to right, except that an ``=>`` converts its last
    argument first and then the others from right to left.  So
    ``(=> A (or B (<= x 0)))`` gives B id 1, ``x <= 0`` id 2 and A id 3.
    Real variables are numbered in the same walk.
    """
    return _Parser().run(text)
