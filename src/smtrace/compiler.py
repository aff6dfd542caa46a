"""Exhaustive DPLL(T) search whose trace is recorded as a d-DNNF graph.

The search branches on every variable (totality: after all clauses are
satisfied, remaining atoms are still branched under theory pruning, so counts
need no smoothing).  It is one loop over an explicit stack of generator
frames: the root is an ordinary branch that asserts the input's unit
clauses, and each branch pops the Boolean and theory trails back to the
sizes it found them at.  A branch answers in place each part of its split
that the cache holds or that is a free Boolean atom (in no unsatisfied
clause); only the other parts open a frame, which decides them.
Backtracking is chronological; theory conflicts yield minimized cores
learned as globally scoped clauses.  Residual subproblems are decomposed at
the variable level: clauses connect through Boolean variables,
through shared real variables, and transitively through real variables
co-occurring in asserted trail atoms.  A component is its scope (its
unassigned variables), the ids of its unsatisfied clauses and its theory
context; scope and ids are int bitmasks, as graph scopes are.  As in
sharpSAT, within one compile a clause id and the scope fix the clause's live
view, its literals over the scope.  Component results are cached under the
three, since the same clauses compile differently under different
entangling decisions.  That context is the trail's inequalities projected by
Fourier-Motzkin onto the reals of the component's own atoms and of the
trail's disequalities, in canonical form, followed by those disequalities:
two trails with equal contexts admit the same assignments to those atoms.
The context is projected with the cache off too, because the theory solver
checks on it: each branch of a component sets it as the solver's context,
so every check of the branch reads the projection plus the literals the
branch asserted, and a sub-component's context is projected from its
parent's plus those literals.  One clause store per compile
(``WatchedClauses``) holds the Boolean state: clauses, assignment, watches
and a per-variable occurrence index, through which splitting reads the
clauses.  It keeps each clause's count of true literals, each variable's
count of unsatisfied clauses, and per count the mask of the variables that
have it, up to date as literals are assigned and undone, as in Chaff:
splitting (``split_components``) reads the first two, the second to cut
free Boolean atoms off at seeding, and the decision order (``decide``) the
masks.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Sequence

from . import lra
from .abstraction import ClauseDb, learn_theory_clause
from .ddnnf import DdnnfGraph, GraphBuilder, variables_of
from .frontend import AtomTable


class CompileError(Exception):
    pass


class NoUnassignedError(CompileError):
    """decide() was called on a component without unassigned variables."""


MODES = ("lazy", "eager", "agnostic")


@dataclass
class CompileConfig:
    mode: str = "lazy"
    components: bool = True
    cache: bool = True
    learning: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class CompileStats:
    decisions: int = 0
    bool_props: int = 0
    theory_props: int = 0
    theory_checks: int = 0  # Fourier-Motzkin feasibility checks (witness hits excluded)
    theory_witness_hits: int = 0  # decided at a stored audited point, minimisation trials included
    theory_rows_max: int = 0  # the most inequality rows one Fourier-Motzkin check started from
    conflicts: int = 0
    learned: int = 0
    components: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    nodes: int = 0
    edges: int = 0
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in STAT_KEYS}


STAT_KEYS = tuple(f.name for f in fields(CompileStats))


@dataclass(slots=True)
class Component:
    """A residual subproblem: unassigned variables plus the clauses they own.

    ``scope`` is the int bitmask of the unassigned variables (bit v for
    variable v), and ``ids`` that of the ids of the unsatisfied clauses over
    them (bit ci for clause id ci).  Every unassigned
    variable of such a clause is in the scope, so the clause's live view
    under the current assignment is its literals over the scope.  The root
    of a search is a component too, the clause store's ``root``: every
    variable and every clause id.
    ``polyhedron`` is the theory context the cache keys on and the search
    checks on: what the trail literals over the component's reals, closed
    under trail entanglement, say about the reals of its own atoms
    (``lra.project_trail``).  Its ``sources`` are those literals; it is
    ``lra.NO_PROJECTION`` when there are none.
    A component is built once per split and never changed; the cache keys
    on ``cache_key``, so a component itself is never hashed.
    """

    scope: int
    ids: int
    polyhedron: lra.Projection


# ---------------------------------------------------------------------------
# the clause store: unit propagation (two watched literals) and the indexes


class WatchedClauses:
    """The Boolean state of one compile, changed only through ``assign``,
    ``undo_to`` and ``propagate``.

    ``clauses`` holds ``db.clauses`` at their ids, then the clauses ``add``
    appends.  ``values[v]`` is variable v's value or None, and ``trail`` the
    assigned literals in order.  Each clause of two literals or more is
    watched on two of them; watches never need undoing on backtrack.  Unit
    and empty input clauses are the caller's to assert.

    The rest covers the input clauses only.  ``occurs[v]`` lists, ascending,
    the clauses variable v occurs in, so a split touches only the clauses of
    the variables it visits.  ``reals[v]`` holds the real variables of each
    linear atom variable v of ``db``, ``linear`` is the mask of those
    variables, and ``atoms_over[r]`` lists the linear atom variables over
    real r, ascending; all are empty without a theory.  A split's flood
    fill treats real r as node ``real_base + r``.
    ``var_stamp`` (per node) and ``clause_stamp`` record what a split has
    marked: a node the fill it joined, a clause whether the seeding or a
    fill read it.  Each split stamps above ``stamp`` and advances it past
    what it used, so nothing is cleared between splits.  ``true[ci]``
    counts the true literals of clause ci, which is all a split reads of
    the clause's satisfaction, and ``counts[v]`` the unsatisfied clauses v
    occurs in (with multiplicity): DLCS's counts, and a split's test for a
    free atom.  Both are kept on assign and undo, as in Chaff.
    ``levels[c]`` is the mask of the variables whose count is c; a count
    never rises above its initial ``len(occurs[v])``, so ``levels`` keeps
    its length.
    ``root`` is the component the search starts from: every variable,
    every input clause id and the empty context ``lra.NO_PROJECTION``.
    """

    def __init__(self, db: ClauseDb, amap: AtomTable) -> None:
        self.clauses = list(db.clauses)
        self.values: list[bool | None] = [None] * (db.num_vars + 1)
        self.trail: list[int] = []
        self.pairs = [list(cl[:2]) for cl in self.clauses]
        self.watches: dict[int, list[int]] = defaultdict(list)
        self.occurs: list[list[int]] = [[] for _ in self.values]
        for ci, cl in enumerate(self.clauses):
            if len(cl) > 1:
                self.watches[cl[0]].append(ci)
                self.watches[cl[1]].append(ci)
            for l in cl:
                self.occurs[abs(l)].append(ci)
        self.reals = {a.id: a.term.real_vars for a in amap.atoms[: db.num_atom_vars] if a.is_linear}
        self.atoms_over: list[list[int]] = [[] for _ in amap.real_names]
        for v, rs in self.reals.items():  # atom ids ascend
            for r in rs:
                self.atoms_over[r].append(v)
        self.real_base = db.num_vars + 1
        self.var_stamp = [0] * (self.real_base + len(amap.real_names))
        self.clause_stamp = [0] * len(self.clauses)
        self.stamp = 0
        self.true = [0] * len(self.clauses)
        counts = self.counts = [len(ids) for ids in self.occurs]
        levels = self.levels = [0] * (max(counts) + 1)
        for v in range(1, len(counts)):
            levels[counts[v]] |= 1 << v
        self.linear = sum(1 << v for v in self.reals)
        self.root = Component((1 << db.num_vars + 1) - 2, (1 << len(self.clauses)) - 1, lra.NO_PROJECTION)

    def add(self, clause: Sequence[int]) -> None:
        """Watch a clause of at least two literals from now on.

        The search adds each learned theory clause here: the negation of a
        minimal infeasible core, which always has two literals or more,
        since constant comparisons fold at parse time and one non-constant
        linear literal is always feasible.  It is added all false, and its
        first two literals negate the two core literals asserted last, as in
        Chaff: a backtrack unassigns those first, so the engine, not the
        theory solver, refutes every assignment the clause excludes.
        """
        ci = len(self.clauses)
        self.clauses.append(tuple(clause))
        self.pairs.append([clause[0], clause[1]])
        self.watches[clause[0]].append(ci)
        self.watches[clause[1]].append(ci)

    def _count(self, lit: int, step: int) -> None:
        """Count lit as assigned (``step`` 1) or unassigned (-1): a clause it
        makes satisfied, or unsatisfied again, moves each of its variables'
        counts by ``-step``."""
        clauses, true, counts, levels = self.clauses, self.true, self.counts, self.levels
        for ci in self.occurs[abs(lit)]:
            clause = clauses[ci]
            if lit in clause:
                true[ci] += step
                if true[ci] == (step > 0):  # 0 -> 1 on assign, 1 -> 0 on undo
                    for u in map(abs, clause):
                        c = counts[u]
                        counts[u] = c - step
                        bit = 1 << u
                        levels[c] ^= bit
                        levels[c - step] |= bit

    def assign(self, lit: int) -> None:
        self.values[abs(lit)] = lit > 0
        self.trail.append(lit)
        self._count(lit, 1)

    def undo_to(self, mark: int) -> None:
        """Unassign the trail's literals past its first ``mark``."""
        trail = self.trail
        while len(trail) > mark:
            lit = trail.pop()
            self.values[abs(lit)] = None
            self._count(lit, -1)

    def propagate(self, queue: list[int]):
        """Run to fixpoint from the assigned literals in queue, assigning
        each implied literal and appending it to queue; returns the falsified
        clause on conflict, else None."""
        values = self.values
        qi = 0
        while qi < len(queue):
            falsified = -queue[qi]
            qi += 1
            wlist = self.watches[falsified]
            j = 0
            while j < len(wlist):
                ci = wlist[j]
                pair = self.pairs[ci]
                other = pair[0] if pair[1] == falsified else pair[1]
                oval = values[abs(other)]
                if oval is not None and oval == (other > 0):
                    j += 1
                    continue
                moved = False
                for cand in self.clauses[ci]:
                    if cand == other or cand == falsified:
                        continue
                    cval = values[abs(cand)]
                    if cval is None or cval == (cand > 0):
                        if pair[0] == falsified:
                            pair[0] = cand
                        else:
                            pair[1] = cand
                        self.watches[cand].append(ci)
                        wlist[j] = wlist[-1]
                        wlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                if oval is not None:  # other watch is false too
                    return self.clauses[ci]
                self.assign(other)
                queue.append(other)
                j += 1
        return None


# ---------------------------------------------------------------------------
# component splitting


def _merge(g, h, todo, got, ids, var_stamp, first) -> int:
    """Join fills g and h of a split, which met, into the one that reached
    more nodes, restamping the other's nodes; return the fill kept."""
    if len(got[g]) > len(got[h]):
        g, h = h, g
    for x in got[g]:
        var_stamp[x] = first + h
    got[h] += got[g]
    todo[h] += todo[g]
    ids[h] |= ids[g]
    got[g] = todo[g] = None
    return h


def _part(index, amap, context, scope, ids, kept, new) -> Component:
    """A part of a split whose parent has the theory context ``context``:
    its ``kept`` sources of that context and its branch literals ``new``
    projected onto the reals its projection can read."""
    polyhedron = lra.NO_PROJECTION
    if kept or new:  # never without a theory: its trail is empty
        # of the reals of the part's atoms, those the projection can read: the context rows' and new's
        near = {v for row in context.rows for v in row[0]}.union(*map(index.reals.__getitem__, map(abs, new)))
        atoms_over = index.atoms_over
        own = {r for r in near for a in atoms_over[r] if scope >> a & 1}
        polyhedron = lra.project_trail(amap, new, own, context, kept)
    return Component(scope, ids, polyhedron)


def split_components(
    index: WatchedClauses,
    amap: AtomTable,
    parent: Component,
    assigned: Sequence[int],
    trail: Sequence[int],
    components: bool = True,
) -> list[Component]:
    """Partition the residual problem of ``parent`` at the variable level.

    Connectivity joins clauses sharing a Boolean variable, linear atoms
    sharing a real variable, and real variables co-occurring in the atom of
    a theory trail literal (which is what entangles otherwise independent
    clause sets).
    Unassigned atoms outside all unsatisfied clauses still form components, so
    totality branching stays scoped.  ``index`` is the compile's clause
    store: the split reads its assignment ``values``, its count ``true`` of
    each clause's true literals and its indexes.

    ``parent`` is the component being decided, ``assigned`` the literals
    its branch asserted and ``trail`` the theory literals among them, in
    trail order.  At the root of the search ``parent`` is ``index.root``,
    the component of every variable and clause id, whose context
    ``lra.NO_PROJECTION`` projects nothing, and its branch asserted the
    whole trail.

    Components are flood fills over the index, with one neighbour walk: a
    reached variable's neighbours are the unassigned variables of the
    clauses it occurs in that no literal satisfies (``true``), each clause
    read once per split and its id kept, then its reals; a reached real's
    are the unassigned atoms over it and the reals of the trail atoms over
    it.  Each part of a decided component holds a seed: a free neighbour of
    an assigned variable (a free variable of a parent clause it occurs in,
    or a real of its atom), since the component was connected.  The root is
    not connected, so each of its unassigned variables that no neighbour
    seeded is a seed too.  With ``components``, a seed that is a Boolean
    atom in no unsatisfied clause (its ``counts`` entry, kept on assign and
    undo, is 0) is a free atom: no fill can reach it or leave it, so it is
    a part of its own at once, stamped so that a repeat of it is skipped,
    and starts no fill.

    Every other seed starts a fill, and when two or more do, they grow in
    lock-step: each takes one node in turn, and two that reach each other's
    nodes merge into the one that reached more, which restamps the other's.
    A fill with nothing left to visit is finished, and a finished fill is a
    whole part: any node next to it was visited from it.  The fills stop
    once at most one is still growing.  Its part is the rest of the parent,
    since every other part holds a seed and so was cut off or finished: the
    parent's masks less the assigned variables, the free atoms, the
    finished fills' variables and clauses, and the clauses the assignment
    satisfied or left with no free literal; a clause it only shrank keeps
    its id.  So the rest costs only what the small parts cost, the nodes
    the fills took in turn with them, and a few operations on masks as wide
    as the parent.  Parts are ordered by their lowest variable.  Without
    ``components`` nothing is cut off or filled and the rest of the parent
    is the one component.

    The trail literals a part can read are the parent context's ``sources``
    and ``trail``: the parent is closed under trail entanglement, so no
    other trail literal mentions its reals.  A finished fill takes those
    over its reals, found through ``atoms_over``, and the rest of the parent
    the others.  Each part's ``polyhedron`` is projected from the parent's,
    which stands for the sources the part keeps, plus the part's branch
    literals in trail order.  The projection keeps, of the reals of the
    part's atoms, those that the parent's rows and the branch literals
    mention, the only ones it can read.
    """
    values, true = index.values, index.true
    clauses, occurs, var_stamp, clause_stamp = index.clauses, index.occurs, index.var_stamp, index.clause_stamp
    reals, atoms_over, base = index.reals, index.atoms_over, index.real_base
    seen, reached = index.stamp + 1, index.stamp + 2  # clause stamps
    first = reached + 1  # the node stamp of fill 0: fill k stamps first + k

    pscope, pids, context = parent.scope, parent.ids, parent.polyhedron
    gone = 0  # the assigned variables of the parent, then the fills'
    dead = 0  # the parent clauses they occur in that are satisfied or have no free literal
    around = []  # the free neighbours of the assigned variables, then the root's unassigned variables
    for lit in assigned:
        v = abs(lit)
        gone |= 1 << v
        for ci in occurs[v]:
            if pids >> ci & 1 and clause_stamp[ci] != seen:
                clause_stamp[ci] = seen
                start = len(around)
                for l in clauses[ci]:
                    if values[abs(l)] is None:
                        around.append(abs(l))
                if true[ci] or len(around) == start:  # satisfied, or no free literal
                    dead |= 1 << ci
        around += [base + r for r in reals.get(v, ())]
    if parent is index.root:  # not connected: every unassigned variable seeds a fill
        around += [v for v in range(1, base) if values[v] is None]
    counts, comps, seeds = index.counts, [], []
    for u in around:
        if var_stamp[u] < first:
            if components and u < base and not counts[u] and u not in reals:  # a free Boolean atom
                var_stamp[u] = first  # no fill reaches it
                gone |= 1 << u
                comps.append(Component(1 << u, 0, lra.NO_PROJECTION))
            else:
                var_stamp[u] = first + len(seeds)
                seeds.append(u)
    index.stamp = first + len(seeds)
    sources, on_branch = context.sources, {abs(lit) for lit in trail} if trail else ()  # the trail literals the parts read

    filled_reals, taken, cut = set(), set(), 0
    if components and len(seeds) > 1:  # else the rest is all
        # fill k: the nodes it reached and has still to visit, all it reached, and its clause ids
        todo, got, ids = [[s] for s in seeds], [[s] for s in seeds], [0] * len(seeds)
        growing, live = list(range(len(seeds))), len(seeds)  # the fills growing as a round starts, and how many grow
        while live > 1:
            if live < len(growing):  # one finished or merged
                growing = [g for g in growing if todo[g]]
            for g in growing:
                visit = todo[g]
                if not visit:  # finished, or merged into another fill
                    continue
                x = visit.pop()
                linked = []  # x's neighbours
                if x < base:
                    for ci in occurs[x]:
                        if clause_stamp[ci] != reached:
                            clause_stamp[ci] = reached
                            if not true[ci]:
                                ids[g] |= 1 << ci
                                for l in clauses[ci]:
                                    if values[abs(l)] is None:
                                        linked.append(abs(l))
                    if x in reals:
                        linked += [base + r for r in reals[x]]
                else:
                    for a in atoms_over[x - base]:
                        if values[a] is None:
                            linked.append(a)
                        elif a in on_branch or a in sources or -a in sources:
                            linked += [base + r for r in reals[a]]
                for y in linked:
                    h = var_stamp[y] - first
                    if h < 0:
                        var_stamp[y] = first + g
                        visit.append(y)
                        got[g].append(y)
                    elif h != g:
                        g, live = _merge(g, h, todo, got, ids, var_stamp, first), live - 1
                        visit = todo[g]
                live -= not visit
                if live < 2:
                    break

        for nodes, fill_ids, visit in zip(got, ids, todo):
            if nodes is None or visit:  # merged into another fill, or still growing: the rest
                continue
            own_reals = {x - base for x in nodes if x >= base} if reals else set()
            # nodes are distinct, so the sum of their bits is their mask
            scope = sum(1 << x for x in nodes if x < base) if own_reals else sum(map((1).__lshift__, nodes))
            gone |= scope
            cut |= fill_ids
            filled_reals |= own_reals
            kept = sources and frozenset(lit for r in own_reals for a in atoms_over[r] for lit in (a, -a) if lit in sources)
            taken |= kept
            if scope:  # not reals alone
                new = trail and [lit for lit in trail if not own_reals.isdisjoint(reals[abs(lit)])]
                comps.append(_part(index, amap, context, scope, fill_ids, kept, new))
    rest = pscope & ~gone
    if rest:
        cut |= dead
        new = [lit for lit in trail if filled_reals.isdisjoint(reals[abs(lit)])] if filled_reals else trail
        comps.append(_part(index, amap, context, rest, pids & ~cut, sources - taken if taken else sources, new))
    if len(comps) > 1:
        comps.sort(key=lambda c: c.scope & -c.scope)  # a fill seeded at a real, or the rest, may start lower
    return comps


def cache_key(component: Component) -> tuple:
    """Identity of a residual subproblem: clause ids, scope and theory
    context, led by the scope's lowest variable.

    The clause id mask and the scope mask fix each clause's live view.
    The context is the key of ``component.polyhedron``: the canonical
    projection of the trail's inequalities onto the reals of the
    component's atoms and of the trail's disequalities, followed by those
    disequalities.  The scope fixes the component's reals, so equal keys
    admit the same assignments.  The lowest variable decides nothing, but
    CPython hashes an int as its value mod 2**61 - 1, under which masks
    that are runs of consecutive bits, as the Boolean chain's are, share
    few hashes; with it they hash apart.
    """
    scope = component.scope
    return ((scope & -scope).bit_length(), component.ids, scope, component.polyhedron.key)


# ---------------------------------------------------------------------------
# branching and clause learning


def decide(component: Component, index: WatchedClauses) -> int:
    """Pick the decision literal for a component (DLCS, pinned atoms first).

    The positive literal of the lowest-id *pinned* variable if there is
    one, else of the variable occurring most often in the component's
    clauses (ties: lowest id): the lowest variable of the highest count
    level (``index.levels``) that meets the scope.  A scope variable is
    unassigned, and each unsatisfied clause it occurs in is a clause of its
    component, so its count is its count over the component's live views.
    A variable is pinned when it occurs in none of
    them and is a linear atom sharing a real with one of the trail literals
    of the component's context, its ``polyhedron.sources``
    (``index.reals``).  Deciding pinned atoms first settles the reals that
    keep the projected cache keys of otherwise equal subproblems apart.
    With an empty trail nothing is pinned and the choice is plain DLCS.
    """
    scope = component.scope
    if not scope:
        raise NoUnassignedError("component has no unassigned variables")
    sources = component.polyhedron.sources
    if sources:
        reals, atoms_over = index.reals, index.atoms_over
        for v in variables_of(scope & index.linear & index.levels[0]):  # count 0: in no clause
            if any(a in sources or -a in sources for r in reals[v] for a in atoms_over[r]):
                return v
    for level in reversed(index.levels):
        top = level & scope
        if top:
            return (top & -top).bit_length() - 1


# ---------------------------------------------------------------------------
# the search


class _Search:
    def __init__(self, db: ClauseDb, amap: AtomTable, cfg: CompileConfig):
        self.db = db
        self.amap = amap
        self.cfg = cfg
        self.index = WatchedClauses(db, amap)
        self.theory = lra.TheoryState(amap, self.index.atoms_over) if cfg.mode == "lazy" and amap.linear_vars() else None
        self.builder = GraphBuilder(db.num_vars, db.num_atom_vars)
        self.cache: dict[tuple, int] = {}
        self.stats = CompileStats()

    # -- propagation

    def _theory_sync(self, lits: Sequence[int]) -> bool:
        theory = self.theory
        for lit in lits:
            if abs(lit) in self.index.reals:
                refutation = theory.assert_literal(lit)
                if refutation is not None:
                    self.stats.conflicts += 1
                    if self.cfg.learning:
                        core = theory.minimal_core(lit, refutation)
                        # lit is in the core, since the trail before it is feasible
                        latest = next(l for l in reversed(theory.trail) if l in core)
                        self.index.add((-lit, -latest, *learn_theory_clause(core - {lit, latest})))
                        self.stats.learned += 1
                    return False
        return True

    def _theory_candidates(self, scope: int) -> list[int]:
        """Unassigned linear atoms of the scope mask that occur in an
        unsatisfied clause (``index.counts``) and all of whose reals the
        trail mentions (``theory.ready``), ascending.

        The component is closed under trail entanglement, so the trail
        literals over its reals are the context's sources and those asserted
        since.  A real the feasible trail leaves free lets an atom over it
        take either value, so that atom is never entailed.
        """
        values, counts = self.index.values, self.index.counts
        return [var for var in variables_of(scope & self.theory.ready) if values[var] is None and counts[var]]

    def _fixpoint(self, scope: int, queue: list[int], implied: set[int]) -> bool:
        """Propagate ``queue``, the literals just assigned, within the scope,
        reading each once; theory propagations also go in ``implied``."""
        while True:
            size = len(queue)
            conflict = self.index.propagate(queue)
            self.stats.bool_props += len(queue) - size
            if conflict is not None:
                self.stats.conflicts += 1
                return False
            if self.theory is not None:
                if not self._theory_sync(queue):
                    return False
                cand = self._theory_candidates(scope)
                props = lra.propagate_candidates(self.theory, cand) if cand else []
                if props:
                    self.stats.theory_props += len(props)
                    for lit in props:
                        self.index.assign(lit)
                    implied.update(props)
                    queue = props
                    continue
            return True

    # -- trace construction: generators that yield each sub-call to run()

    def _compile_component(self, comp: Component):
        """Decide a part that ``_branch`` found neither cached nor a free
        Boolean atom, and compile both branches."""
        lit = decide(comp, self.index)
        hi = yield self._branch((lit,), comp)
        lo = yield self._branch((-lit,), comp)
        return self.builder.or_node(lit, hi, lo)

    def _branch(self, lits: Sequence[int], parent: Component):
        """Assert lits in the clause store, propagate within the parent's
        scope, compile what remains and undo what the branch assigned.

        Each part of the split is keyed once (``cache_key``), with the cache
        on, and counted as a hit or a miss.  A part the cache holds is
        answered in place, and so is a free Boolean atom (no clause ids, one
        variable, not linear): either branch would assign it alone and imply
        nothing, so it is one decision whose node is the Or of its two
        literals.  Only the other parts open a ``_compile_component`` frame.
        Each missed part is stored under its key once compiled.

        lits is a decision ``(lit,)`` in ``parent``, or, when ``parent`` is
        the store's ``root``, the input's unit clauses, which count as
        Boolean propagations.  Theory queries run on the parent's
        projection, set here since none runs after a split.
        Every literal the branch assigns lies in the scope: the input
        clauses it propagates are the scope's, and a learned clause negates
        a minimal core, whose atoms the trail entangles with the literal
        that made the clause unit.  So a branch that assigned as many
        literals as the scope holds left nothing to split.
        """
        scope, index = parent.scope, self.index
        units = parent is index.root
        mark = len(index.trail)
        theory, theory_mark = self.theory, 0
        if theory is not None:
            theory_mark = len(theory.trail)
            theory.context = (parent.polyhedron, theory_mark)
        queue = []
        for lit in lits:
            val = index.values[abs(lit)]
            if val is None:
                index.assign(lit)
                self.stats.bool_props += units
                queue.append(lit)
            elif val != (lit > 0):  # two unit clauses clash
                self.stats.conflicts += 1
                index.undo_to(mark)
                return self.builder.false_id
        node = self.builder.false_id
        implied: set[int] = set()
        if self._fixpoint(scope, queue, implied):
            assigned = index.trail[mark:]
            parts = [self.builder.lit(lit, implied=lit in implied) for lit in assigned]
            comps = []
            if len(assigned) < scope.bit_count():
                branch_theory = theory.trail[theory_mark:] if theory is not None else ()
                comps = split_components(index, self.amap, parent, assigned, branch_theory, self.cfg.components)
            if len(comps) > 1:
                self.stats.components += len(comps)
            builder, cache = self.builder, self.cache if self.cfg.cache else None
            for comp in comps:
                key = child = None
                if cache is not None:
                    key = cache_key(comp)
                    child = cache.get(key)
                    if child is not None:
                        self.stats.cache_hits += 1
                    else:
                        self.stats.cache_misses += 1
                if child is None:
                    self.stats.decisions += 1
                    part = comp.scope
                    if not comp.ids and not part & (part - 1) and not part & index.linear:  # a free Boolean atom
                        v = part.bit_length() - 1
                        child = builder.or_node(v, builder.lit(v), builder.lit(-v))
                    else:
                        child = yield self._compile_component(comp)
                    if key is not None:
                        cache[key] = child
                if child == builder.false_id:
                    break
                parts.append(child)
            else:
                node = builder.and_node(parts)
        index.undo_to(mark)
        if theory is not None:
            theory.pop_to(theory_mark)
        return node

    def run(self) -> int:
        """Drive the search from the root branch, over ``index.root``.  Each
        frame yields the generator of its sub-call and is sent that call's
        result, so the frames live on a list and depth costs no recursion."""
        if not all(self.db.clauses):  # an empty clause
            return self.builder.false_id
        frames = [self._branch([cl[0] for cl in self.db.clauses if len(cl) == 1], self.index.root)]
        result = None
        while True:
            try:
                frames.append(frames[-1].send(result))
                result = None
            except StopIteration as done:
                frames.pop()
                if not frames:
                    return done.value
                result = done.value


def compile(db: ClauseDb, amap: AtomTable, cfg: CompileConfig | None = None) -> DdnnfGraph:
    """Compile a CNF with its atom map into a d-DNNF graph.

    In lazy mode the theory solver prunes and propagates during search, so
    every captured total assignment is theory-satisfiable.  In eager mode the
    clause set is assumed to carry theory blocking clauses already; agnostic
    mode compiles the Boolean abstraction as-is.  Statistics are attached to
    the returned graph.
    """
    cfg = cfg or CompileConfig()
    start = time.perf_counter()
    search = _Search(db, amap, cfg)
    root = search.run()
    graph = search.builder.finish(root, amap, has_tags=cfg.mode in ("lazy", "eager"))
    stats = search.stats
    if search.theory is not None:
        stats.theory_checks = search.theory.checks
        stats.theory_witness_hits = search.theory.witness_hits
        stats.theory_rows_max = search.theory.rows_max
    stats.nodes = len(graph)
    stats.edges = graph.edge_count
    stats.wall_ms = (time.perf_counter() - start) * 1000.0
    graph.stats = stats
    return graph
