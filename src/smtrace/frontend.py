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

Formula nodes are immutable and hash in constant time: each computes its
hash once, from its children's, when it is built.

The parser makes one pass over the tokens to match every '(' with its ')',
which is where unbalanced or too deeply nested text is refused, and one to
run the commands in order, converting each asserted term on explicit
stacks, so depth costs no recursion.  A parse converts each symbol and each
comparison text once: repeats are looked up.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
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


@dataclass(unsafe_hash=True)
class LinTerm:
    """A rational linear expression (sum(c_i * x_i) + const) / den, as
    integer numerators over one positive denominator.

    ``coeffs`` holds (real-variable id, numerator) pairs with strictly
    increasing ids and no zero numerators, and ``den`` is the least
    denominator, which makes the representation canonical and hashable.  A
    canonical atom's term has ``den == 1``: it is its own integer row.
    A term is never changed after it is made, so it hashes by its fields;
    it is not frozen, since a frozen dataclass's ``__init__`` costs a
    generic ``object.__setattr__`` per field.
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
    den = 1
    for _, _, t_den in terms:
        if den % t_den:
            den = math.lcm(den, t_den)
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
    return ({v: c * p for v, c in nums.items()} if nums else nums), const * p, den * q


# ---------------------------------------------------------------------------
# atoms and literals

BOOL = "bool"
LEQ = "leq"  # term <= 0
EQ = "eq"  # term = 0


@dataclass(slots=True, unsafe_hash=True)
class Atom:
    """An interned atom; like ``LinTerm``, never changed after it is made."""

    id: int
    kind: str
    name: str | None = None
    term: LinTerm | None = None

    @property
    def is_linear(self) -> bool:
        return self.kind in (LEQ, EQ)


@dataclass(slots=True, unsafe_hash=True)
class Literal:
    """The leaf of a formula tree.  Past the parser a literal is the signed
    atom id ``signed``: ``a`` for atom a, ``-a`` for its negation.  Like
    ``LinTerm``, a literal is never changed after it is made."""

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
        self.theory_terms: dict = {}  # signed literal -> what its point evaluator reads, built once

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
        return self._intern((BOOL, name), BOOL, name, None)

    def intern_linear(self, kind: str, term: LinTerm) -> int:
        if kind not in (LEQ, EQ):
            raise ValueError(f"not a linear atom kind: {kind}")
        return self._intern((kind, term.coeffs, term.const, term.den), kind, None, term)

    def _intern(self, key: tuple, kind: str, name: str | None, term: LinTerm | None) -> int:
        aid = self._ids.get(key)
        if aid is None:
            aid = len(self.atoms) + 1
            self.atoms.append(Atom(aid, kind, name, term))
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
    return _comparison(table, op, *(({v: c for v, c in t.coeffs if c}, t.const, t.den) for t in (lhs, rhs)))


def _comparison(table: AtomTable, op: str, lhs: _Sum, rhs: _Sum) -> Literal | bool:
    if op not in _CMP_KINDS:
        raise ValueError(f"unknown comparison operator: {op}")
    kind, positive = _CMP_KINDS[op]
    if op in (">=", "<"):
        lhs, rhs = rhs, lhs
    (l_nums, l_const, l_den), (r_nums, r_const, r_den) = lhs, rhs
    # lhs - rhs times l_den * r_den, which _primitive divides out again
    const = l_const * r_den - r_const * l_den
    nums = {v: c * r_den for v, c in l_nums.items()}
    for v, c in r_nums.items():
        nums[v] = nums.get(v, 0) - c * l_den
    items = sorted((v, c) for v, c in nums.items() if c)
    canon = _primitive(kind, items, const)
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


_set = object.__setattr__


class FNode:
    """A node of a formula tree: immutable and equal by structure, with its
    hash computed once, at construction, from its children's hashes, so a
    lookup costs the same at any depth."""

    __slots__ = ("_hash",)

    def __init__(self) -> None:  # a constant: no fields
        _set(self, "_hash", hash(type(self)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self) and self._hash == other._hash and self._fields() == other._fields()
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FTrue(FNode):
    __slots__ = ()


class FFalse(FNode):
    __slots__ = ()


class FLit(FNode):
    __slots__ = ("lit",)

    def __init__(self, lit: Literal) -> None:
        _set(self, "lit", lit)
        _set(self, "_hash", hash(lit.atom if lit.positive else -lit.atom))


class FNot(FNode):
    __slots__ = ("child",)

    def __init__(self, child: FNode) -> None:
        _set(self, "child", child)
        _set(self, "_hash", hash((FNot, child._hash)))


class FAnd(FNode):
    __slots__ = ("children",)

    def __init__(self, children: tuple[FNode, ...]) -> None:
        _set(self, "children", children)
        _set(self, "_hash", hash((FAnd, children)))


class FOr(FNode):
    __slots__ = ("children",)

    def __init__(self, children: tuple[FNode, ...]) -> None:
        _set(self, "children", children)
        _set(self, "_hash", hash((FOr, children)))


class FImplies(FNode):
    __slots__ = ("left", "right")

    def __init__(self, left: FNode, right: FNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((FImplies, left._hash, right._hash)))


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
_CMP_HEADS = frozenset(("<", ">", "<=", ">=", "=", "distinct"))
_BOOL_HEADS = _CMP_HEADS | {"and", "or", "not", "=>"}
_ARITH_HEADS = frozenset(("+", "-", "*", "/"))


# A token is the group: a parenthesis, a string literal, a quoted symbol
# with its bars, a plain token, or a '"' or '|' that nothing closes.  A
# comment matches outside the group and reads as ''; whitespace does not
# match at all.
_TOKEN = re.compile(r';[^\n]*|([()]|"[^"]*"|\|[^|]*\||[^\s();"|]+|["|])')


def _tokenize(text: str) -> tuple[str, ...]:
    """The tokens of ``text``, comments dropped.  A quoted symbol keeps its
    bars, so ``|(|`` is not a parenthesis; the parser strips them, so
    ``|x|`` and ``x`` name one symbol."""
    if ";" not in text and '"' not in text and "|" not in text:  # most texts: parentheses and words
        return tuple(text.replace("(", " ( ").replace(")", " ) ").split())
    tokens = _TOKEN.findall(text)
    # most texts hold neither character, and the text is the faster scan
    unclosed = [tok for tok in ('"', "|") if tok in text and tok in tokens]
    if unclosed:
        what = "string literal" if min(unclosed, key=tokens.index) == '"' else "quoted symbol"
        raise SmtSyntaxError(f"unterminated {what}")
    return tuple(tok for tok in tokens if tok)


def _name(tok: str) -> str:
    """The symbol a token names: a quoted symbol without its bars."""
    return tok[1:-1] if tok[:1] == "|" else tok


# Text nested deeper than this is refused before any conversion.
_MAX_DEPTH = 10_000


def _closing(tokens: tuple[str, ...]) -> list[int]:
    """At the position of each '(', the position of its ')'; the entries at
    other positions are unused.  Raises on unbalanced or too deep text."""
    close = [0] * len(tokens)
    opens: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(opens) == _MAX_DEPTH:
                raise UnsupportedFeatureError("terms nested too deeply")
            opens.append(i)
        elif tok == ")":
            if not opens:
                raise SmtSyntaxError("unexpected ')'")
            close[opens.pop()] = i
    if opens:
        raise SmtSyntaxError("unbalanced parenthesis")
    return close


def _numeral(tok: str) -> tuple[int, int] | None:
    """(numerator, denominator) of a decimal numeral of ASCII digits."""
    negative = tok.startswith("-")
    body = tok[1:] if negative else tok
    if not body[:1].isdigit():  # names, mostly
        return None
    a, dot, b = body.partition(".")
    if not (a.isascii() and a.isdigit() and (not dot or (b.isascii() and b.isdigit()))):
        return None
    try:
        num = int(a + b)
    except ValueError as exc:  # more digits than int() reads
        raise SmtSyntaxError(f"bad numeral {tok[:40]!r}") from exc
    return (-num if negative else num), 10 ** len(b)


def _show(tokens, i: int = 0, limit: int = 40) -> str:
    """The expression at ``tokens[i]`` written back as text, cut after
    ``limit`` characters, for error messages.  It reads no more tokens than
    it shows, so neither size nor depth costs time."""
    parts: list[str] = []
    size = depth = 0
    for tok in islice(tokens, i, None):
        text = _name(tok)
        if parts and text not in ("", ")") and not parts[-1].endswith("("):
            text = " " + text
        parts.append(text)
        size += len(text)
        depth += (tok == "(") - (tok == ")")
        if depth == 0 or size > limit:
            break
    out = "".join(parts)
    return out if size <= limit else out[:limit] + "..."


class _Parser:
    """One pass over the tokens: commands in order, and each asserted term
    converted on an explicit stack of open lists (``term``)."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.close = _closing(self.tokens)
        self.table = AtomTable()
        self.sorts: dict[str, str] = {}
        # token -> its node as a Boolean term, or its sum as a Real term, and
        # comparison (its token slice) -> its node; only what converted is
        # kept, and a repeat would intern nothing new
        self.leaves: dict[str, FNode] = {}
        self.sums: dict[str, _Sum] = {}
        self.comparisons: dict[tuple[str, ...], FNode] = {}
        self.asserts: list[FNode] = []

    def run(self) -> Formula:
        tokens, close, p = self.tokens, self.close, 0
        while p < len(tokens):
            if tokens[p] != "(" or p + 1 == close[p]:
                raise SmtSyntaxError(f"expected a command, got {_show(tokens, p)!r}")
            self.command(p)
            p = close[p] + 1
        if not self.asserts:
            return Formula(FTrue(), self.table)
        return Formula(self.asserts[0] if len(self.asserts) == 1 else FAnd(tuple(self.asserts)), self.table)

    def args(self, p: int) -> list[int]:
        """The positions of the arguments of the list opened at ``p``."""
        tokens, close = self.tokens, self.close
        out = []
        a, end = p + 2, close[p]
        while a < end:
            out.append(a)
            a = close[a] + 1 if tokens[a] == "(" else a + 1
        return out

    def command(self, p: int) -> None:
        """Run the command opened at ``p``."""
        tokens = self.tokens
        head = tokens[p + 1]
        if head == "(":
            raise SmtSyntaxError(f"command head must be a symbol, got {_show(tokens, p + 1)!r}")
        head = _name(head)
        if head in _IGNORED_COMMANDS:
            return
        args = self.args(p)
        if head == "set-logic":
            if len(args) != 1 or _name(tokens[args[0]]) != "QF_LRA":
                raise UnsupportedFeatureError(f"logic {_show(('(',) + tokens[p + 2 :])} is not QF_LRA")
        elif head == "declare-const":
            if len(args) != 2:
                raise SmtSyntaxError("declare-const expects a name and a sort")
            self.declare(*args)
        elif head == "declare-fun":
            if len(args) != 3:
                raise SmtSyntaxError("declare-fun expects name, arguments and sort")
            if tokens[args[1]] != "(" or self.close[args[1]] != args[1] + 1:
                raise UnsupportedFeatureError("uninterpreted functions of arity > 0")
            self.declare(args[0], args[2])
        elif head == "assert":
            if len(args) != 1:
                raise SmtSyntaxError("assert expects exactly one term")
            self.asserts.append(self.term(args[0]))
        else:
            raise UnsupportedFeatureError(f"unsupported command {_show(tokens, p + 1)}")

    def declare(self, at: int, sort_at: int) -> None:
        tokens = self.tokens
        if tokens[at] == "(":
            raise SmtSyntaxError(f"bad symbol {_show(tokens, at)!r}")
        name = _name(tokens[at])
        if name in ("true", "false") or _numeral(name) is not None:
            raise SmtSyntaxError(f"cannot declare {_show(tokens, at)!r}: it reads as a constant")
        sort = _name(tokens[sort_at])
        if sort not in ("Real", "Bool"):
            raise UnsupportedFeatureError(f"sort {_show(tokens, sort_at)} (only Real and Bool)")
        if name in self.sorts:
            raise SmtSyntaxError(f"symbol {_show(tokens, at)} declared twice")
        self.sorts[name] = sort

    def term(self, p: int) -> FNode:
        """The Boolean term at ``p``, in one pass on an explicit stack.

        A frame is ``[head, converted arguments, position of its '(',
        pending argument positions]`` for an And, Or, Not or ``=>``: its
        number of arguments is checked at its '(', and it is reduced at its
        ')'.  An ``=>`` visits its arguments last first (``pending``), so
        they arrive in reverse.  A comparison is converted whole.
        """
        tokens, close, leaves, comparisons = self.tokens, self.close, self.leaves, self.comparisons
        frames: list[list] = []
        while True:
            tok = tokens[p]
            if tok == "(":
                head = tokens[p + 1]
                if head not in _BOOL_HEADS:
                    head = self.head(p, real=False)
                end = close[p]
                if head in _CMP_HEADS:
                    node = comparisons.get(tokens[p : end + 1]) or self.comparison(p, head)
                    p = end
                else:
                    pending = None
                    if head == "not":
                        a = p + 2
                        if (close[a] if tokens[a] == "(" else a) + 1 != end:
                            raise SmtSyntaxError("not expects one argument")
                    elif head == "=>":
                        pending = self.args(p)
                        if len(pending) < 2:
                            raise SmtSyntaxError("=> expects at least two arguments")
                    elif p + 2 == end:
                        raise SmtSyntaxError(f"{head} expects at least one argument")
                    frames.append([head, [], p, pending])
                    p = pending.pop() if pending else p + 2
                    continue
            elif tok == ")":
                head, items, _, _ = frames.pop()
                if head == "or":
                    node = FOr(tuple(items))
                elif head == "not":
                    node = FNot(items[0])
                elif head == "and":
                    node = FAnd(tuple(items))
                else:
                    node = items[0]
                    for left in items[1:]:
                        node = FImplies(left, node)
            else:
                node = leaves.get(tok) or self.bool_leaf(tok)
            # node is the term that ends at p: hand it to its frame
            if not frames:
                return node
            frame = frames[-1]
            frame[1].append(node)
            pending = frame[3]
            p = p + 1 if pending is None else pending.pop() if pending else close[frame[2]]

    def comparison(self, p: int, head: str) -> FNode:
        """The node of the comparison at ``p``, kept under its tokens, which
        a repeat looks up (``term``) and does not read again."""
        args = self.args(p)
        if len(args) < 2:
            raise SmtSyntaxError(f"{head} expects two arguments")
        if len(args) > 2:
            raise UnsupportedFeatureError(f"chained {head} comparison")
        if head == "=" and self.is_bool_expr(args[0]):
            raise UnsupportedFeatureError("Boolean equality")
        lit = _comparison(self.table, head, self.real_term(args[0]), self.real_term(args[1]))
        node = (FTrue() if lit else FFalse()) if isinstance(lit, bool) else FLit(lit)
        self.comparisons[self.tokens[p : self.close[p] + 1]] = node
        return node

    def real_term(self, p: int) -> _Sum:
        """The Real term at ``p``, on an explicit stack of frames ``(head,
        converted arguments)``, each reduced at its ')'."""
        tokens, close, sums = self.tokens, self.close, self.sums
        frames: list[tuple[str, list[_Sum]]] = []
        while True:
            tok = tokens[p]
            if tok == "(":
                head = tokens[p + 1]
                if head not in _ARITH_HEADS or head == "/" or p + 2 == close[p]:
                    head = self.head(p, real=True)
                frames.append((head, []))
                p += 2
                continue
            if tok == ")":
                head, items = frames.pop()
                total = _arithmetic(head, items)
            else:
                total = sums.get(tok) or self.real_leaf(tok)
            if not frames:
                return total
            frames[-1][1].append(total)
            p += 1

    def head(self, p: int, real: bool) -> str:
        """The checked head of the list at ``p``, in a Real or a Boolean
        place: the slow path, for heads not written as a plain operator
        that takes the arguments it has."""
        tokens = self.tokens
        if p + 1 == self.close[p]:
            raise SmtSyntaxError("empty application")
        if tokens[p + 1] == "(":
            raise SmtSyntaxError(f"term head must be a symbol, got {_show(tokens, p + 1)!r}")
        head = _name(tokens[p + 1])
        if head in _UNSUPPORTED_HEADS:
            raise UnsupportedFeatureError(f"unsupported construct {_show(tokens, p + 1)!r}")
        if not real:
            if head in _ARITH_HEADS:
                self.real_term(p)  # raises on nonlinearity first
                raise SmtSyntaxError(f"arithmetic term ({head} ...) where a Boolean term is expected")
            if head not in _BOOL_HEADS:
                raise UndeclaredSymbolError(f"undeclared symbol {_show(tokens, p + 1)!r}")
        elif head in ("+", "-", "*"):
            if p + 2 == self.close[p]:
                raise SmtSyntaxError(f"{head} expects at least one argument")
        elif head == "/":
            if len(self.args(p)) != 2:
                raise SmtSyntaxError("/ expects two arguments")
        else:
            raise SmtSyntaxError(f"{_show(tokens, p + 1)} is not a Real operator")
        return head

    def is_bool_expr(self, at: int) -> bool:
        tokens = self.tokens
        if tokens[at] != "(":
            name = _name(tokens[at])
            return name in ("true", "false") or self.sorts.get(name) == "Bool"
        return _name(tokens[at + 1]) in _BOOL_HEADS

    def bool_leaf(self, tok: str) -> FNode:
        name = _name(tok)
        if name == "true":
            node: FNode = FTrue()
        elif name == "false":
            node = FFalse()
        else:
            sort = self.sorts.get(name)
            if sort is None:
                if _numeral(name) is not None:
                    raise SmtSyntaxError(f"number {_show((tok,))} where a Boolean term is expected")
                raise UndeclaredSymbolError(f"undeclared symbol {_show((tok,))!r}")
            if sort != "Bool":
                raise SmtSyntaxError(f"{_show((tok,))} is Real, expected a Boolean term")
            node = FLit(Literal(self.table.intern_bool(name), True))
        self.leaves[tok] = node
        return node

    def real_leaf(self, tok: str) -> _Sum:
        name = _name(tok)
        num = _numeral(name)
        if num is not None:
            total: _Sum = ({}, *num)
        else:
            sort = self.sorts.get(name)
            if sort is None:
                raise UndeclaredSymbolError(f"undeclared symbol {_show((tok,))!r}")
            if sort != "Real":
                raise SmtSyntaxError(f"{_show((tok,))} is Bool, expected a Real term")
            total = {self.table.real_var(name): 1}, 0, 1
        self.sums[tok] = total
        return total


def _arithmetic(head: str, terms: list[_Sum]) -> _Sum:
    """The sum of an arithmetic operator over its converted arguments."""
    if head == "+":
        return _add(terms)
    if head == "-":
        if len(terms) == 1:
            return _scaled(terms[0], -1, 1)
        return _add(terms[:1] + [_scaled(t, -1, 1) for t in terms[1:]])
    if head == "*":
        factor = None  # the one factor with variables, if any
        p = q = 1
        for term in terms:
            if not term[0]:
                p *= term[1]
                q *= term[2]
            elif factor is None:
                factor = term
            else:
                raise UnsupportedFeatureError("nonlinear term (product of variables)")
        return ({}, p, q) if factor is None else _scaled(factor, p, q)
    num, (den_nums, p, q) = terms
    if den_nums:
        raise UnsupportedFeatureError("division by a non-constant")
    if p == 0:
        raise SmtSyntaxError("division by zero")
    return _scaled(num, q if p > 0 else -q, abs(p))


def parse_smt2(text: str) -> Formula:
    """Parse the supported SMT-LIB2 subset into a Formula.

    The result is the conjunction of all assert commands.  Atoms are
    canonical and interned in the order a walk of each assert meets them:
    arguments left to right, except that an ``=>`` converts its last
    argument first and then the others from right to left.  So
    ``(=> A (or B (<= x 0)))`` gives B id 1, ``x <= 0`` id 2 and A id 3.
    Real variables are numbered in the same walk.  The walk keeps its own
    stack, so any nesting up to the reader's bound of 10,000 open
    parentheses converts.
    """
    return _Parser(text).run()
