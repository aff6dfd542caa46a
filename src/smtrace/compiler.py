"""Exhaustive DPLL(T) search whose trace is recorded as a d-DNNF graph.

The search branches on every variable (totality: after all clauses are
satisfied, remaining atoms are still branched under theory pruning, so counts
need no smoothing).  It is one loop over an explicit stack of generator
frames: the root is an ordinary branch that asserts the input's unit
clauses, and each branch pops the Boolean and theory trails back to the
sizes it found them at.  Backtracking is chronological; theory conflicts yield
minimized cores learned as globally scoped clauses.  Residual subproblems are
decomposed at the variable level: clauses connect through Boolean variables,
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
clauses.  It keeps each variable's count of unsatisfied clauses, and per
count the mask of the variables that have it, up to date as literals are
assigned and undone, as in Chaff.  Splits are stamped flood fills, and there
is one kind: the root of the search is the store's component ``index.root``,
of every variable, every input clause id and an empty context, so it is
split as a decided component is.  A split starts from the component and
fills only around the variables its branch assigned (at the root, which is
not connected, also from every unassigned variable); the one part no fill
reached is the component's masks less the fills' and the branch's variables
and clauses.  A branch that assigned the whole scope is not split.  Each
part's context is projected from the component's, plus the branch's
literals over the part's reals.  The decision order is DLCS on the kept
counts, except that a linear atom in none of the component's clauses that
shares a real with the component's trail context is decided first: leaving
it open would keep that real apart in the cache keys of otherwise equal
subproblems.  A component that is one Boolean atom in no clause is a leaf,
its two literals, with no branches.  A decision thus pays for the occurrence
lists of the literals its branches assign, the small parts of their splits,
and a few operations in C on masks as wide as the compile: the rest's cut,
DLCS's count levels and the cache key's hash.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import chain
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
    theory_witness_hits: int = 0  # theory queries decided at the trail's stored point
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
    marked: each split advances ``stamp``, so nothing is cleared between
    splits.  ``true[ci]`` counts the true literals of clause ci and
    ``counts[v]`` the unsatisfied clauses v occurs in (with multiplicity):
    DLCS's counts, kept on assign and undo as in Chaff.  ``levels[c]`` is
    the mask of the variables whose count is c; a count never rises above
    its initial ``len(occurs[v])``, so ``levels`` keeps its length.
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


def _live_view(clause, values) -> tuple[int, ...]:
    """The unassigned literals of a clause, or ``()`` when it is satisfied."""
    live = []
    for l in clause:
        val = values[abs(l)]
        if val is None:
            live.append(l)
        elif val == (l > 0):
            return ()
    return tuple(live)


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
    store: the split reads its assignment ``values`` and its indexes.

    ``parent`` is the component being decided, ``assigned`` the literals
    its branch asserted and ``trail`` the theory literals among them, in
    trail order.  At the root of the search ``parent`` is ``index.root``,
    the component of every variable and clause id, whose context
    ``lra.NO_PROJECTION`` projects nothing, and its branch asserted the
    whole trail.

    Components are flood fills over the index.  A reached variable visits
    the clauses it occurs in, each once per split, and keeps the id of a
    clause that is not satisfied; its unassigned variables join the fill.
    A reached atom joins its reals, and a reached real joins the unassigned
    atoms over it and the reals of the trail atoms over it.  Each part holds
    a seed: a free neighbour of an assigned variable (a free variable of a
    parent clause it occurs in, or a real of its atom), since the parent was
    connected, or at the root, which is not, any unassigned variable.  The
    seeds, in ascending order, start the fills, except the last that no
    earlier fill reached: its part is the rest of the parent, the parent's
    masks less the assigned variables, the fills' variables and clauses,
    and the clauses the assignment left with no live literal; a clause it
    only shrank keeps its id.  That costs the fills and a few operations on
    masks as wide as the parent.  Parts are ordered by their lowest
    variable.  Without ``components`` nothing is filled and the rest of the
    parent is the one component.

    The trail literals a part can read are the parent context's ``sources``
    and ``trail``: the parent is closed under trail entanglement, so no
    other trail literal mentions its reals.  A fill takes those over its
    reals and the rest of the parent those over no fill's.  Each part's
    ``polyhedron`` is projected from the parent's, which stands for its
    ``sources`` in any order, plus the part's other literals.
    """
    values = index.values
    clauses, occurs, var_stamp, clause_stamp = index.clauses, index.occurs, index.var_stamp, index.clause_stamp
    reals, atoms_over, base = index.reals, index.atoms_over, index.real_base
    index.stamp += 2
    seed, reached = index.stamp - 1, index.stamp  # seed: a seed no fill reached yet

    seeds = []
    if parent is index.root:  # not connected: every unassigned variable seeds
        seeds = [v for v in range(1, base) if values[v] is None]
        for v in seeds:
            var_stamp[v] = seed
    pscope, pids, context = parent.scope, parent.ids, parent.polyhedron
    gone = 0  # the assigned variables of the parent, then the fills'
    shrunk = []  # the parent clauses they occur in
    for lit in assigned:
        v = abs(lit)
        if not pscope >> v & 1:
            continue
        gone |= 1 << v
        for ci in occurs[v]:
            if pids >> ci & 1 and clause_stamp[ci] != seed:
                clause_stamp[ci] = seed
                shrunk.append(ci)
                for l in clauses[ci]:
                    u = abs(l)
                    if values[u] is None and var_stamp[u] != seed:
                        var_stamp[u] = seed
                        seeds.append(u)
        for r in reals.get(v, ()):
            if var_stamp[base + r] != seed:
                var_stamp[base + r] = seed
                seeds.append(base + r)
    seeds = sorted(seeds) if components else []  # without components the rest is all
    pending = len(seeds)  # stamped seeds no fill reached

    lits = [*context.sources, *trail]  # the trail literals the parts read
    on_trail = {abs(lit) for lit in lits}

    fills = []  # (variable mask, reals, clause id mask) per fill
    for s in seeds:
        if var_stamp[s] == reached:
            continue
        if pending == 1:  # the last: its part is the rest of the parent
            break
        pending -= var_stamp[s] == seed
        var_stamp[s] = reached
        nodes, ids = [s], 0
        for x in nodes:  # grows as the fill reaches new nodes
            if x < base:
                for ci in occurs[x]:
                    if clause_stamp[ci] == reached:
                        continue
                    clause_stamp[ci] = reached
                    view = clauses[ci]
                    for l in view:
                        if values[abs(l)] is not None:
                            view = _live_view(view, values)
                            break
                    if view:
                        ids |= 1 << ci
                        for l in view:
                            v = abs(l)
                            mark = var_stamp[v]
                            if mark != reached:
                                pending -= mark == seed
                                var_stamp[v] = reached
                                nodes.append(v)
                if x not in reals:
                    continue
                linked = [base + r for r in reals[x]]
            else:
                linked = []
                for a in atoms_over[x - base]:
                    if values[a] is None:
                        linked.append(a)
                    elif a in on_trail:
                        linked += [base + r for r in reals[a]]
            for y in linked:
                mark = var_stamp[y]
                if mark != reached:
                    pending -= mark == seed
                    var_stamp[y] = reached
                    nodes.append(y)
        # nodes are distinct, so the sum of their bits is their mask
        fills.append((sum(1 << x for x in nodes if x < base), {x - base for x in nodes if x >= base}, ids))

    def component(scope, ids, part_lits) -> Component:
        polyhedron = lra.NO_PROJECTION
        if part_lits:  # never without a theory: its trail is empty
            own = frozenset().union(*(reals[v] for v in variables_of(scope & index.linear)))
            polyhedron = lra.project_trail(amap, part_lits, own, context)
        return Component(scope, ids, polyhedron)

    comps, filled_reals, cut = [], set(), 0
    for scope, own_reals, ids in fills:
        gone |= scope
        cut |= ids
        filled_reals |= own_reals
        if scope:  # not reals alone
            over = [lit for lit in lits if not own_reals.isdisjoint(reals[abs(lit)])]
            comps.append(component(scope, ids, over))
    rest = pscope & ~gone
    if rest:
        cut |= sum(1 << ci for ci in shrunk if not _live_view(clauses[ci], values))
        rest_lits = [lit for lit in lits if filled_reals.isdisjoint(reals[abs(lit)])]
        comps.append(component(rest, pids & ~cut, rest_lits))
    if len(comps) > 1:
        comps.sort(key=lambda c: c.scope & -c.scope)  # a fill seeded at a real, or the rest, may start lower
    return comps


def cache_key(component: Component) -> tuple:
    """Identity of a residual subproblem: clause ids, scope and theory
    context.

    The clause id mask and the scope mask fix each clause's live view.
    The context is the key of ``component.polyhedron``: the canonical
    projection of the trail's inequalities onto the reals of the
    component's atoms and of the trail's disequalities, followed by those
    disequalities.  The scope fixes the component's reals, so equal keys
    admit the same assignments.
    """
    return (component.ids, component.scope, component.polyhedron.key)


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
        counts, reals = index.counts, index.reals
        pinned = frozenset().union(*(reals[abs(lit)] for lit in sources))
        for v in variables_of(scope & index.linear):
            if not counts[v] and not pinned.isdisjoint(reals[v]):
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
        self.theory = lra.TheoryState(amap) if cfg.mode == "lazy" and amap.linear_vars() else None
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
                        # the refutation's core is audited already: its first check is the refutation
                        first = refutation.core
                        check = lambda lits: refutation if lits == first else theory._check(lits)
                        core = lra.minimize_core(self.amap, first, check=check)
                        # lit is in the core, since the trail before it is feasible
                        latest = next(l for l in reversed(theory.trail) if l in core)
                        self.index.add((-lit, -latest, *learn_theory_clause(core - {lit, latest})))
                        self.stats.learned += 1
                    return False
        return True

    def _theory_candidates(self, scope: int) -> list[int]:
        """Unassigned linear atoms of the scope mask that occur in an
        unsatisfied clause (``index.counts``) and all of whose reals the
        trail mentions, ascending.

        The component is closed under trail entanglement, so the trail
        literals over its reals are the context's sources and those asserted
        since.  A real the feasible trail leaves free lets an atom over it
        take either value, so that atom is never entailed.  Without an atom
        of the first kind the trail is not read.
        """
        values, reals, counts = self.index.values, self.index.reals, self.index.counts
        atoms = [var for var in variables_of(scope & self.index.linear) if values[var] is None and counts[var]]
        if not atoms:
            return []
        context, mark = self.theory.context
        mentioned = frozenset().union(*(reals[abs(lit)] for lit in chain(context.sources, self.theory.trail[mark:])))
        return [var for var in atoms if reals[var] <= mentioned]

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
        if self.cfg.cache:
            key = cache_key(comp)
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
            self.stats.cache_misses += 1
        self.stats.decisions += 1
        if not comp.ids and not comp.scope & (comp.scope - 1) and not comp.scope & self.index.linear:
            # a free Boolean atom: either branch would assign it alone and imply nothing
            lit = comp.scope.bit_length() - 1
            hi, lo = self.builder.lit(lit), self.builder.lit(-lit)
        else:
            lit = decide(comp, self.index)
            hi = yield self._branch((lit,), comp)
            lo = yield self._branch((-lit,), comp)
        node = self.builder.or_node(abs(lit), hi, lo)
        if self.cfg.cache:
            self.cache[key] = node
        return node

    def _branch(self, lits: Sequence[int], parent: Component):
        """Assert lits in the clause store, propagate within the parent's
        scope, compile what remains and undo what the branch assigned.

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
            for comp in comps:
                child = yield self._compile_component(comp)
                if child == self.builder.false_id:
                    break
                parts.append(child)
            else:
                node = self.builder.and_node(parts)
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
