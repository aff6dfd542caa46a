import itertools
import random
import sys
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as hst

import smtrace as st
from smtrace.compiler import (
    Component,
    NoUnassignedError,
    WatchedClauses,
    cache_key,
    decide,
    learn_theory_clause,
    split_components,
)
from smtrace.ddnnf import variables_of
from smtrace.frontend import AtomTable
from conftest import assigned_store, bool_chain, entangled_setup, nested_text, pipeline, real_chain_text, root_split


# ---------------------------------------------------------------------------
# unit propagation


def unit_propagate(db, assignment):
    """(implied literals in order, falsified clause or None) of the clause
    store of ``db`` under ``assignment``, with its unit clauses asserted
    first as the search does."""
    store = WatchedClauses(db, AtomTable())
    given = [var if val else -var for var, val in sorted(assignment.items())]
    for lit in given:
        store.assign(lit)
    mark, queue = len(store.trail), []
    for u in (cl[0] for cl in db.clauses if len(cl) == 1):
        if store.values[abs(u)] is None:
            store.assign(u)
            queue.append(u)
        elif store.values[abs(u)] != (u > 0):
            return store.trail[mark:], (u,)
    conflict = store.propagate(queue + given)
    return store.trail[mark:], conflict


@pytest.mark.parametrize("added", [False, True])
def test_added_clause_propagates_and_conflicts_like_an_initial_one(added):
    clause = (1, 2, 3)

    def store(lits):
        db = st.ClauseDb(6, 6, [(4,), (5, 6)] if added else [(4,), (5, 6), clause])
        s = WatchedClauses(db, AtomTable())
        if added:
            s.add(clause)
        for lit in lits:
            s.assign(lit)
        return s

    s = store([-1, -2])
    assert s.propagate([-1, -2]) is None
    assert s.trail == [-1, -2, 3]
    assert store([-1, -2, -3]).propagate([-1, -2, -3]) == clause


def test_unit_propagate_chain():
    db = st.ClauseDb(2, 2, [(1,), (-1, 2)])
    assert unit_propagate(db, {}) == ([1, 2], None)


def test_unit_propagate_conflict():
    db = st.ClauseDb(1, 1, [(1,), (-1,)])
    assert unit_propagate(db, {})[1] == (-1,)


def test_unit_propagate_under_assignment():
    db = st.ClauseDb(2, 2, [(1, 2)])
    assert unit_propagate(db, {1: False}) == ([2], None)


# ---------------------------------------------------------------------------
# decide


def _mask(items):
    """The int bitmask of variables or clause ids: bit i for item i."""
    out = 0
    for i in items:
        out |= 1 << i
    return out


def _index(clauses, values, reals=None):
    """The stand-in for the compile's clause index that ``decide`` reads:
    the real map, the atoms over each real and the linear atoms' mask, per
    variable the number of its occurrences in the clauses that ``values``
    (indexed by variable) leaves unsatisfied, as the search keeps them, and
    per count the mask of the variables with that count."""
    counts = [0] * len(values)
    for cl in clauses:
        if not any(values[abs(l)] == (l > 0) for l in cl):
            for l in cl:
                counts[abs(l)] += 1
    levels = [0] * (max(counts) + 1)
    for v in range(1, len(counts)):
        levels[counts[v]] |= 1 << v
    reals = reals or {}
    atoms_over = defaultdict(list)
    for v in sorted(reals):
        for r in reals[v]:
            atoms_over[r].append(v)
    return SimpleNamespace(counts=counts, levels=levels, reals=reals, linear=_mask(reals), atoms_over=atoms_over)


def _component(clauses, scope, sources=(), reals=None):
    """A component owning every clause of ``clauses``, with nothing
    assigned, and its clause index stand-in (``_index``)."""
    comp = Component(_mask(scope), _mask(range(len(clauses))), st.lra.Projection((), sources=frozenset(sources)))
    n = max((abs(v) for v in itertools.chain(scope, *clauses)), default=0)
    return comp, _index(clauses, _unassigned(n), reals)


def test_decide_dlcs_occurrences():
    assert decide(*_component([(1, 2), (1, 3)], [1, 2, 3])) == 1


def test_decide_dlcs_tie_lowest_id():
    assert decide(*_component([(1, 2)], [1, 2])) == 1


def test_decide_no_unassigned():
    with pytest.raises(NoUnassignedError):
        decide(*_component([], []))


def reference_decide(component, clauses, values):
    """``decide`` before pinned atoms went first: plain DLCS over the live
    views of the component's clauses, each view computed from the clause
    and the assignment ``values`` (indexed by variable)."""
    if not component.scope:
        raise NoUnassignedError("component has no unassigned variables")
    counts = {}
    for ci in variables_of(component.ids):
        if any(values[abs(l)] == (l > 0) for l in clauses[ci]):
            continue  # satisfied: its live view is empty
        for l in clauses[ci]:
            if values[abs(l)] is None:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
    if not counts:
        return variables_of(component.scope)[0]
    return min(counts, key=lambda v: (-counts[v], v))


def _unassigned(n):
    return [None] * (n + 1)


# linear atoms 4-7 over reals 0-2; 1-3 are Boolean; trail atom 9 pins real 0
_REALS = {
    4: frozenset({2}),
    5: frozenset({1, 2}),
    6: frozenset({0, 2}),
    7: frozenset({0}),
    9: frozenset({0, 1}),
}


def test_decide_picks_pinned_atom_before_dlcs():
    clauses = [(1, 2), (1, 3), (-1, 4)]
    comp, index = _component(clauses, (1, 2, 3, 4, 5, 6, 7), (-9,), _REALS)
    assert reference_decide(comp, clauses, _unassigned(9)) == 1
    # 4 is in a clause, 5 shares only real 1 with the trail atom, 6 and 7 real 0
    assert decide(comp, index) == 5
    pinned_by_real_0 = Component(_mask((1, 2, 3, 4, 6, 7)), comp.ids, comp.polyhedron)
    assert decide(pinned_by_real_0, index) == 6


def test_decide_without_pinned_atoms_is_dlcs():
    # atom 4 shares no real with the trail atom, and Boolean 3 has none
    clauses = [(1, 2), (1, 2)]
    no_share, index = _component(clauses, (1, 2, 3, 4), (7,), _REALS)
    assert decide(no_share, index) == reference_decide(no_share, clauses, _unassigned(9)) == 1
    # a pinned-looking atom in a clause of the component is left to DLCS
    clauses = [(1, 2), (1, 6)]
    in_clause, index = _component(clauses, (1, 2, 6), (9,), _REALS)
    assert decide(in_clause, index) == reference_decide(in_clause, clauses, _unassigned(9)) == 1
    # with an empty trail the rule is off
    comp, index = _component([(1, 2)], (1, 2, 7), (9,), _REALS)
    assert decide(Component(comp.scope, comp.ids, st.lra.NO_PROJECTION), index) == 1
    assert decide(comp, index) == 7


@settings(max_examples=200)
@given(hst.data())
def test_decide_with_empty_trail_matches_reference(data):
    """With no trail context nothing is pinned, whatever the real map says.
    The component is what a split makes under a random assignment: the
    clauses it leaves unsatisfied with a free literal, and a scope holding
    their free variables and perhaps free variables in no clause."""
    n = data.draw(hst.integers(1, 8))
    lit = hst.integers(1, n).flatmap(lambda v: hst.sampled_from((v, -v)))
    clauses = data.draw(hst.lists(hst.lists(lit, min_size=1, max_size=3), max_size=6))
    values = _unassigned(n)
    for v, val in data.draw(hst.dictionaries(hst.integers(1, n), hst.booleans())).items():
        values[v] = val
    free = [v for v in range(1, n + 1) if values[v] is None]
    assume(free)
    ids = [
        ci
        for ci, cl in enumerate(clauses)
        if not any(values[abs(l)] == (l > 0) for l in cl) and any(values[abs(l)] is None for l in cl)
    ]
    scope = {abs(l) for ci in ids for l in clauses[ci] if values[abs(l)] is None}
    scope |= data.draw(hst.sets(hst.sampled_from(free)))
    assume(scope)
    reals = data.draw(hst.dictionaries(hst.integers(1, n), hst.frozensets(hst.integers(0, 2), min_size=1)))
    comp = Component(_mask(scope), _mask(ids), st.lra.NO_PROJECTION)
    assert decide(comp, _index(clauses, values, reals)) == reference_decide(comp, clauses, values)


def test_decide_counts_match_a_recount(monkeypatch):
    """At every decision, each scope variable's maintained count is its
    number of occurrences in the live views of the component's clauses,
    the count ``decide`` used to make afresh.  Every literal a branch
    assigns lies in its parent's scope, which lets a branch that assigned
    as many literals as the scope holds skip the split."""
    compiler = st.compiler
    original_decide, original_split = compiler.decide, compiler.split_components
    seen = {"values": None, "decisions": 0, "splits": 0}

    def checked_split(index, amap, parent, assigned, trail, components=True):
        seen["values"] = index.values  # the search's one list, assigned in place
        if parent is not index.root:
            assert {abs(lit) for lit in assigned} <= set(variables_of(parent.scope))
            seen["splits"] += 1
        return original_split(index, amap, parent, assigned, trail, components)

    def checked_decide(component, index):
        values = seen["values"]
        views = (compiler._live_view(index.clauses[ci], values) for ci in variables_of(component.ids))
        recount = Counter(abs(l) for view in views for l in view)
        scope = variables_of(component.scope)
        assert {v: index.counts[v] for v in scope} == {v: recount[v] for v in scope}
        seen["decisions"] += 1
        return original_decide(component, index)

    monkeypatch.setattr(compiler, "split_components", checked_split)
    monkeypatch.setattr(compiler, "decide", checked_decide)
    for seed in range(200):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            pipeline(f)
            if seed < 60:
                pipeline(f, mode="eager")
    for n in (6, 8, 10):
        pipeline(st.parse_smt2(real_chain_text(n)))
    for n in (100, 200, 400):
        st.compile(*bool_chain(n))
    assert seen["decisions"] > 1000 and seen["splits"] > 1000, seen


# ---------------------------------------------------------------------------
# component splitting and trail entanglement


def test_split_independent_and_entangled():
    pair, lits = entangled_setup()
    prop, amap = st.boolean_abstract(pair)
    db = st.to_cnf(prop)
    xy = lits["xy"].signed
    assignment = {abs(xy): xy > 0}

    comps = root_split(db, amap, assignment, [])
    assert len(comps) == 2
    assert [c.scope for c in comps] == [_mask((1, 2)), _mask((3, 4))]
    assert all(c.polyhedron.sources == frozenset() for c in comps)

    comps = root_split(db, amap, assignment, [xy])
    assert len(comps) == 1
    assert comps[0].scope == _mask((1, 2, 3, 4))
    assert comps[0].polyhedron.sources == {xy}
    # x + y < 5 over the reals of the component's own atoms, as -5 + x + y < 0
    x, y = sorted(_real_vars(amap, abs(xy)))
    assert comps[0].polyhedron.key == ((((x, 1), (y, 1)), -5, True),)


def test_split_propositional():
    db = st.ClauseDb(4, 4, [(1, 2), (3, 4)])
    amap = AtomTable()
    comps = root_split(db, amap, {}, [])
    assert len(comps) == 2


def test_split_components_off():
    db = st.ClauseDb(4, 4, [(1, 2), (3, 4)])
    amap = AtomTable()
    comps = root_split(db, amap, {}, [], components=False)
    assert len(comps) == 1 and comps[0].scope == _mask((1, 2, 3, 4))


def test_split_free_atom_joins_entangled_component():
    # an unassigned linear atom outside all clauses must share a component
    # with the clauses its real variable touches
    pair, lits = entangled_setup()
    prop, amap = st.boolean_abstract(pair)
    db = st.to_cnf(prop)
    comps = root_split(db, amap, {}, [])
    # the free x+y atom (var 5) bridges the x-side and the y-side
    assert len(comps) == 1
    assert comps[0].scope == _mask((1, 2, 3, 4, 5))


def _real_vars(amap, var):
    return amap.atom(var).term.real_vars if amap.is_linear_var(var) else frozenset()


def reference_split(db, amap, assignment, trail, components=True, scope=None):
    """Every clause rescanned and sorted on every call, union-find on tagged
    tuples: the splitter before its clause index."""
    values = [None] * (db.num_vars + 1)
    for var, val in assignment.items():
        values[var] = val
    if scope is None:
        scope_vars = [v for v in range(1, db.num_vars + 1) if values[v] is None]
    else:
        scope_vars = [v for v in variables_of(scope) if values[v] is None]
    scope_set = set(scope_vars)
    residuals = []  # (clause id, live view)
    for ci, cl in enumerate(db.clauses):
        if any(values[abs(l)] == (l > 0) for l in cl):
            continue
        live = [l for l in cl if values[abs(l)] is None]
        if live and all(abs(l) in scope_set for l in live):
            residuals.append((ci, tuple(sorted(live, key=lambda l: (abs(l), l < 0)))))
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    seen_reals = set()
    for lit in trail:
        reals = sorted(amap.atom(abs(lit)).term.real_vars)
        seen_reals.update(reals)
        for r in reals[1:]:
            union(("r", reals[0]), ("r", r))
    for v in scope_vars:
        for r in _real_vars(amap, v):
            seen_reals.add(r)
            union(("b", v), ("r", r))
    for _, live in residuals:
        for l in live[1:]:
            union(("b", abs(live[0])), ("b", abs(l)))

    def component(views, variables, reals):
        lits = [lit for lit in trail if amap.atom(abs(lit)).term.real_vars & reals]
        polyhedron = st.lra.NO_PROJECTION
        if lits:
            own = frozenset().union(*(_real_vars(amap, v) for v in variables))
            polyhedron = st.lra.project_trail(amap, lits, own)
        return Component(_mask(variables), _mask(ci for ci, _ in views), polyhedron)

    if not components:
        if not scope_vars and not residuals:
            return []
        return [component(residuals, scope_vars, frozenset(seen_reals))]
    groups = {}
    for v in scope_vars:
        groups.setdefault(find(("b", v)), ([], [], set()))[0].append(v)
    for ci, view in residuals:
        groups[find(("b", abs(view[0])))][1].append((ci, view))
    for r in seen_reals:
        if find(("r", r)) in groups:
            groups[find(("r", r))][2].add(r)
    return [
        component(views, variables, frozenset(reals))
        for variables, views, reals in sorted(groups.values(), key=lambda g: g[0][0])
    ]


def _split_cases():
    for seed in range(0, 40, 3):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            prop, amap = st.boolean_abstract(f)
            yield f"sweep{seed}", st.to_cnf(prop), amap
    for n in (12, 40):
        yield f"chain{n}", *bool_chain(n)
        prop, amap = st.boolean_abstract(st.parse_smt2(real_chain_text(n)))
        yield f"real_chain{n}", st.to_cnf(prop), amap


def test_split_matches_reference_on_random_partial_assignments():
    rng = random.Random(5)
    configs = [st.CompileConfig(), st.CompileConfig(cache=False), st.CompileConfig(components=False)]
    for name, db, amap in _split_cases():
        index = WatchedClauses(db, amap)
        for _ in range(6):
            assigned = rng.sample(range(1, db.num_vars + 1), rng.randint(0, db.num_vars))
            assignment = {v: rng.random() < 0.5 for v in assigned}
            trail = [v if val else -v for v, val in assignment.items() if amap.is_linear_var(v)]
            trail = rng.sample(trail, rng.randint(0, min(len(trail), 4)))
            for lit in (v if val else -v for v, val in assignment.items()):
                index.assign(lit)
            for cfg in configs:
                want = reference_split(db, amap, assignment, trail, cfg.components)
                assert root_split(db, amap, assignment, trail, cfg.components) == want, name
                # a store that split before: its stamps are not cleared
                assert split_components(index, amap, index.root, index.trail, trail, cfg.components) == want, name
            index.undo_to(0)


def test_split_from_a_parent_matches_the_reference():
    """A parent component of the reference split, some of its variables
    assigned with their linear literals put on the trail as the lazy search
    asserts them (or with no trail at all, as without a theory): the split
    that fills around the assignment, reading the parent's context and the
    branch's linear literals, and cuts the rest out of the parent equals
    the reference split of the whole trail over the parent's scope."""
    rng = random.Random(11)
    configs = [st.CompileConfig(), st.CompileConfig(cache=False), st.CompileConfig(components=False)]
    checked = 0
    for name, db, amap in _split_cases():
        for _ in range(4):
            theory = rng.random() < 0.7
            n = db.num_vars
            assignment = {v: rng.random() < 0.5 for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2))}
            trail = [v if val else -v for v, val in assignment.items() if theory and amap.is_linear_var(v)]
            index = assigned_store(db, amap, assignment)
            for cfg in configs:
                for parent in reference_split(db, amap, assignment, trail, cfg.components):
                    scope = variables_of(parent.scope)
                    size = len(scope)
                    picked = rng.sample(scope, min(size, rng.choice([1, 1, 2, 3, size // 2 + 1, size])))
                    child = dict(assignment)
                    lits = []
                    for v in picked:
                        child[v] = rng.random() < 0.5
                        lits.append(v if child[v] else -v)
                    branch = [lit for lit in lits if theory and amap.is_linear_var(abs(lit))]
                    want = reference_split(db, amap, child, trail + branch, cfg.components, parent.scope)
                    mark = len(index.trail)
                    for lit in lits:
                        index.assign(lit)
                    got = split_components(index, amap, parent, lits, branch, cfg.components)
                    index.undo_to(mark)
                    assert got == want, name
                    checked += 1
    assert checked > 300


def _store_reads(monkeypatch, compiles):
    """Per compile, the reads of the clause store's ``occurs`` and
    ``atoms_over`` lists, the indexes a split fills through."""
    original = WatchedClauses.__init__
    reads = 0

    class Counting(list):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return super().__getitem__(i)

    def counting_init(self, db, amap):
        original(self, db, amap)
        self.occurs, self.atoms_over = Counting(self.occurs), Counting(self.atoms_over)

    monkeypatch.setattr(WatchedClauses, "__init__", counting_init)
    totals = []
    for run in compiles:
        reads = 0
        run()
        totals.append(reads)
    return totals


def test_split_work_grows_linearly_on_the_boolean_chain(monkeypatch):
    """Each split reads the occurrence lists only around the branch's
    assignment, so the lookups over a whole compile of the chain grow about
    linearly in n, not quadratically."""
    totals = _store_reads(monkeypatch, [lambda n=n: st.compile(*bool_chain(n)) for n in (200, 400)])
    assert totals[0] > 200 and totals[1] / totals[0] < 3, totals


def test_split_work_grows_linearly_on_the_real_chain(monkeypatch):
    """Every split of the real chain keeps one part, the rest of the chain.
    Lock-step fills stop once the fills from the branch's seeds have met,
    so the store's reads over a whole compile grow about linearly in n."""
    chain = lambda n: lambda: pipeline(st.parse_smt2(real_chain_text(n)))
    totals = _store_reads(monkeypatch, [chain(48), chain(96)])
    assert totals[0] > 500 and totals[1] / totals[0] < 3, totals


def test_split_work_grows_linearly_on_nested_text(monkeypatch):
    """``nested_text`` splits off a small part above a large one, the last
    seed's or not: the lock-step fills read about the small part only."""
    nested = lambda d: lambda: pipeline(st.parse_smt2(nested_text(d)))
    totals = _store_reads(monkeypatch, [nested(100), nested(200)])
    assert totals[0] > 500 and totals[1] / totals[0] < 3, totals


def test_search_graphs_match_the_reference_split(monkeypatch):
    """The search builds the same graph, node for node, and the same stats
    whether it splits by flood fill of its branch or by the reference
    union-find over the whole theory trail."""
    formulas = [gen(seed) for seed in range(8) for gen in (st.random_formula, st.random_nested_formula)]

    def graphs():
        runs = [pipeline(f, mode=mode)[0] for f in formulas for mode in ("lazy", "eager", "agnostic")]
        chains = [pipeline(st.parse_smt2(text))[0] for text in (real_chain_text(8), nested_text(30))]
        return runs + [st.compile(*bool_chain(40)), *chains]

    new = graphs()
    searches = _record_searches(monkeypatch)
    calls = 0

    def reference(index, amap, parent, assigned, trail, components=True):
        nonlocal calls
        calls += 1
        assignment = {v: val for v, val in enumerate(index.values) if val is not None}
        search = searches[-1]
        whole = search.theory.trail if search.theory is not None else []
        return reference_split(search.db, amap, assignment, whole, components, parent.scope)

    monkeypatch.setattr(st.compiler, "split_components", reference)
    old = graphs()
    assert calls > 100
    for a, b in zip(new, old):
        assert _trace(a) == _trace(b)


def test_theory_candidates_match_a_full_scan(monkeypatch):
    """The component-local candidates are the scope's unassigned linear
    atoms in an unsatisfied clause whose reals the whole trail mentions."""
    original = st.compiler._Search._theory_candidates
    calls = 0

    def checked(self, scope):
        nonlocal calls
        calls += 1
        values, db = self.index.values, self.db
        mentioned = frozenset().union(*(_real_vars(self.amap, abs(l)) for l in self.theory.trail))
        want = {
            abs(l)
            for cl in db.clauses
            if not any(values[abs(l)] == (l > 0) for l in cl)
            for l in cl
            if values[abs(l)] is None
            and scope >> abs(l) & 1
            and abs(l) <= db.num_atom_vars
            and self.amap.is_linear_var(abs(l))
            and _real_vars(self.amap, abs(l)) <= mentioned
        }
        got = original(self, scope)
        assert got == sorted(want)
        return got

    monkeypatch.setattr(st.compiler._Search, "_theory_candidates", checked)
    for seed in range(0, 30, 3):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            pipeline(f)
    pipeline(st.parse_smt2(real_chain_text(6)))
    assert calls > 100


def test_no_theory_core_is_learned_twice(monkeypatch):
    """A learned clause is watched on the negations of its two core literals
    asserted last, so once a backtrack leaves it unit the watched engine
    refutes what it excludes, and no compile derives the same core again."""
    minimize = st.lra.minimize_core
    cores = []

    def recording(*args, **kwargs):
        core = minimize(*args, **kwargs)
        cores[-1].append(core)
        return core

    monkeypatch.setattr(st.lra, "minimize_core", recording)
    for seed in range(200):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            cores.append([])
            pipeline(f)
            repeated = [core for core, n in Counter(cores[-1]).items() if n > 1]
            assert not repeated, (seed, repeated)
    assert sum(map(len, cores)) > 200


def test_core_minimisation_decides_the_trail_trial_at_the_top_point(monkeypatch):
    """Of a conflict core's deletion trials, the one that drops the refuted
    literal is a subset of the feasible trail, decided at the trail's top
    point: minimising runs one Fourier-Motzkin check fewer than its trials
    and keeps the core that a check of every trial keeps."""
    minimize, check_feasible = st.lra.minimize_core, st.lra.check_feasible
    checks, minimised = 0, 0

    def counting(*args, **kwargs):
        nonlocal checks
        checks += 1
        return check_feasible(*args, **kwargs)

    def recording(table, core, check):
        nonlocal minimised
        trials = []
        before = checks
        got = minimize(table, core, check=lambda lits: trials.append(lits) or check(lits))
        assert trials[0] == core  # answered by the refutation
        assert checks - before == len(trials) - 2
        assert got == minimize(table, core)
        minimised += 1
        return got

    monkeypatch.setattr(st.lra, "check_feasible", counting)
    monkeypatch.setattr(st.lra, "minimize_core", recording)
    for seed in range(40):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            pipeline(f)
    pipeline(st.parse_smt2(real_chain_text(6)))
    assert minimised > 20


# ---------------------------------------------------------------------------
# cache keys


def test_cache_key_identity_and_projection():
    pair, lits = entangled_setup()
    prop, amap = st.boolean_abstract(pair)
    db = st.to_cnf(prop)
    xy = lits["xy"].signed
    assignment = {abs(xy): xy > 0}

    (c1,) = root_split(db, amap, assignment, [xy])
    (c2,) = root_split(db, amap, assignment, [xy])
    assert cache_key(c1) == cache_key(c2)

    # same residual clauses, entangling trail literal flipped: different key
    (c3,) = root_split(db, amap, assignment, [-xy])
    assert cache_key(c3) != cache_key(c1)

    # trail literal over disjoint reals is projected away: keys match
    table = pair.table
    from smtrace.frontend import LinTerm, normalize_comparison

    w = table.real_var("w")
    extra = normalize_comparison(table, "<=", LinTerm.make({w: 1}), LinTerm.constant(0)).signed
    prop2, amap2 = st.boolean_abstract(pair)  # amap now includes the new atom
    db2 = st.to_cnf(prop2)
    assign2 = dict(assignment)
    assign2[abs(extra)] = extra > 0
    base = root_split(db2, amap2, assign2, [])
    with_extra = root_split(db2, amap2, assign2, [extra])
    assert [cache_key(c) for c in base] == [cache_key(c) for c in with_extra]


def test_cache_key_on_projection_with_disequalities(monkeypatch):
    pair, lits = entangled_setup()
    table = pair.table
    from smtrace.frontend import LinTerm, normalize_comparison

    x, y = table.real_var("x"), table.real_var("y")
    ne = normalize_comparison(table, "!=", LinTerm.make({x: 1}), LinTerm.make({y: 1})).signed
    prop, amap = st.boolean_abstract(pair)
    db = st.to_cnf(prop)
    xy = lits["xy"].signed

    # with the x + y atom assigned, the component's own atoms mention x and y
    # separately; a disequality on the trail follows the projected rows
    assignment = {abs(ne): ne > 0, abs(xy): xy > 0}
    (comp,) = root_split(db, amap, assignment, [ne, xy])
    assert (xy, ne) == (-5, -6) and comp.polyhedron.sources == {xy, ne}
    assert comp.polyhedron.key == (*st.lra.project_trail(amap, [xy], {x, y}).key, ne)
    assert cache_key(comp) == ((comp.scope & -comp.scope).bit_length(), comp.ids, comp.scope, comp.polyhedron.key)

    # the equality x = y instead: the same clauses, a convex context
    assignment[abs(ne)] = ne < 0
    (convex,) = root_split(db, amap, assignment, [-ne, xy])
    assert convex.ids == comp.ids and convex.scope == comp.scope
    assert all(isinstance(row, tuple) for row in convex.polyhedron.key)
    assert cache_key(convex) != cache_key(comp)

    # the context is projected without the cache too: the search checks on it
    split = st.compiler.split_components

    def contexts(cache):
        keys = set()

        def recording(*args):
            comps = split(*args)
            keys.update(c.polyhedron.key for c in comps)
            return comps

        monkeypatch.setattr(st.compiler, "split_components", recording)
        pipeline(pair, cache=cache)
        return keys

    on, off = contexts(True), contexts(False)
    assert on <= off and any(isinstance(part, int) for key in off for part in key)


def test_boolean_chain_cache_keys_hash_apart(monkeypatch):
    """The Boolean chain's scopes and clause id masks are runs of
    consecutive bits, which CPython's int hash (the value mod 2**61 - 1)
    folds onto few values; led by the scope's lowest variable, at least
    90 % of the chain's keys at n = 800 hash apart."""
    keys = []

    def recording(comp):
        keys.append(cache_key(comp))
        return keys[-1]

    monkeypatch.setattr(st.compiler, "cache_key", recording)
    st.compile(*bool_chain(800))
    distinct = set(keys)
    assert len(distinct) > 1000
    assert len(set(map(hash, distinct))) >= 0.9 * len(distinct), (len(set(map(hash, distinct))), len(distinct))


def test_every_keyed_component_is_fixed_by_its_clause_ids_and_scope(monkeypatch):
    """The cache key names a component by its clause ids and scope.  That
    is sound because, whenever the search opens a component, its ids are
    input clause ids, its scope variables are unassigned, and each of its clauses is
    unsatisfied with every unassigned variable in the scope, so the clause
    id and the scope fix the clause's live view.  The theory context the
    key adds is projected from the theory trail's literals over the reals
    of the component's atoms, closed under trail entanglement."""
    searches = _record_searches(monkeypatch)
    opened = with_context = 0

    def checked(comp):
        nonlocal opened, with_context
        opened += 1
        search = searches[-1]
        values, clauses, reals = search.index.values, search.index.clauses, search.index.reals
        scope = set(variables_of(comp.scope))
        assert 0 <= comp.ids < 1 << len(search.db.clauses)
        assert all(values[v] is None for v in scope)
        for ci in variables_of(comp.ids):
            assert not any(values[abs(l)] == (l > 0) for l in clauses[ci]), ci
            assert {abs(l) for l in clauses[ci] if values[abs(l)] is None} <= scope, ci
        trail = search.theory.trail if search.theory is not None else []
        own, over = set().union(*(reals.get(v, ()) for v in scope)), set()
        while True:  # the trail literals over those reals, then over theirs
            more = {lit for lit in trail if lit not in over and not own.isdisjoint(reals[abs(lit)])}
            if not more:
                break
            over |= more
            own.update(*(reals[abs(lit)] for lit in more))
        assert comp.polyhedron.sources == over, (comp.scope, trail)
        with_context += bool(over)
        return cache_key(comp)

    monkeypatch.setattr(st.compiler, "cache_key", checked)
    for seed in range(200):
        f = st.random_formula(seed)
        for mode in ("lazy", "eager"):
            pipeline(f, mode=mode)
    assert opened > 1000 and with_context > 100, (opened, with_context)


def test_disequality_context_counts_and_stays_sound(monkeypatch):
    text = """
    (declare-const x Real)(declare-const y Real)
    (assert (or (distinct x y) (< x 0)))
    (assert (or (< y 3) (> y 5)))
    (assert (or (< x 3) (> x 5)))
    """
    f = st.parse_smt2(text)
    contexts = []

    def recording(comp):
        contexts.append(comp.polyhedron.key)
        return cache_key(comp)

    monkeypatch.setattr(st.compiler, "cache_key", recording)
    g, _, _ = pipeline(f)
    assert any(isinstance(part, int) for context in contexts for part in context)
    assert st.count(g) == st.brute_counts(f)[1]


def test_real_chain_hits_the_projected_cache():
    f = st.parse_smt2(real_chain_text(6))
    g, _, _ = pipeline(f)
    assert g.stats.cache_hits > 0
    assert g.stats.decisions < 147  # the syntactic key's figure
    assert st.count(g) == 144 == st.brute_counts(f)[1]
    assert st.validate(g, level="theory", table=f.table).ok


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_real_chain_decides_linearly():
    """Pinned atoms first: the chain compiles in 3n - 4 decisions, and its
    count is F(2n).  Sizes go up in one test, so that an order that lets the
    search grow exponentially fails at n = 6 rather than running for minutes
    at n = 20."""
    for n in range(6, 21):
        g, _, _ = pipeline(st.parse_smt2(real_chain_text(n)))
        assert g.stats.decisions <= 3 * n, n
        assert st.count(g) == _fibonacci(2 * n), n


def test_every_context_query_answers_as_the_whole_trail(monkeypatch):
    """Each theory query runs on its branch's context: the parent
    component's projection of the trail's first ``mark`` literals, plus the
    literals asserted since.  The context stands for literals still on the
    trail, its answer equals a whole-trail check, its witness is a point for
    the whole trail and the literal, and its certificate cites trail
    literals only and passes the audit over them."""
    query = st.lra.TheoryState._query
    seen = {"sat": 0, "unsat": 0, "extended": 0, "composed": 0}

    def compared(self, lit):
        result = query(self, lit)
        lits = [*self.trail, lit]
        assert result.sat == st.check_feasible(self.table, lits).sat, lits
        context, mark = self.context
        assert mark <= len(self.trail) and context.sources <= set(self.trail[:mark]), (mark, self.trail)
        if result.sat:
            assert st.lra.witness_satisfies(self.table, lits, result.witness), lits
            seen["extended"] += bool(context.stages)
        else:
            assert st.verify_certificate(self.table, lits, result.certificate), lits
            seen["composed"] += bool(context.rows)
        seen["sat" if result.sat else "unsat"] += 1
        return result

    monkeypatch.setattr(st.lra.TheoryState, "_query", compared)
    configs = ({}, {"cache": False}, {"components": False})
    for seed in range(200):
        f = st.random_formula(seed)
        for cfg in configs:
            pipeline(f, **cfg)
    for n in range(6, 25):
        pipeline(st.parse_smt2(real_chain_text(n)))
    assert min(seen.values()) > 50, seen


def test_real_chain_checks_stay_small():
    """At n = 48 every check runs on a handful of rows: the whole trail
    would give it about 94."""
    g, _, _ = pipeline(st.parse_smt2(real_chain_text(48)))
    assert 0 < g.stats.theory_rows_max <= 8, g.stats.theory_rows_max
    assert st.count(g) == _fibonacci(96)


def _trace(graph):
    stats = graph.stats.as_dict()
    del stats["wall_ms"]
    return graph.root, graph.nodes, stats


def _record_searches(monkeypatch):
    """The list every search started from now on is appended to."""
    searches = []
    original = st.compiler._Search.__init__

    def recording(self, *args):
        original(self, *args)
        searches.append(self)

    monkeypatch.setattr(st.compiler._Search, "__init__", recording)
    return searches


def test_empty_trail_graphs_match_reference_decide(monkeypatch):
    """Eager and agnostic mode and pure-Boolean input have no trail, so
    their graphs and stats are the plain-DLCS ones; lazy counts agree."""
    formulas = [gen(seed) for seed in range(8) for gen in (st.random_formula, st.random_nested_formula)]
    runs = [(f, mode) for f in formulas for mode in ("eager", "agnostic", "lazy")]

    def graphs():
        return [pipeline(f, mode=mode)[0] for f, mode in runs] + [st.compile(*bool_chain(40))]

    new = graphs()
    monkeypatch.setattr(st.compiler, "decide", lambda comp, index: reference_decide(comp, index.clauses, index.values))
    old = graphs()
    runs.append((None, "bool-chain"))
    for (f, mode), a, b in zip(runs, new, old):
        assert st.count(a) == st.count(b)
        if mode != "lazy" or not f.table.linear_vars():
            assert _trace(a) == _trace(b), mode


def test_no_projection_without_theory(monkeypatch, gap_xy):
    def no_projection(*args):
        raise AssertionError("projection without a theory in the search")

    monkeypatch.setattr(st.compiler.lra, "project_trail", no_projection)
    for mode in ("eager", "agnostic"):
        g, _, _ = pipeline(gap_xy, mode=mode)
        assert g.stats.cache_misses > 0
    f = st.parse_smt2("(declare-const A Bool)(declare-const B Bool)(assert (or A B))")
    assert st.count(pipeline(f)[0]) == 3


# ---------------------------------------------------------------------------
# theory clause learning


def test_learn_theory_clause_examples(gap01):
    # core {x<=0, x>=1} over atom vars 1, 2
    assert learn_theory_clause({1, 2}) == (-1, -2)
    # a core of negated-atom literals blocks as positive atom literals
    assert learn_theory_clause({-1, -2}) == (1, 2)
    assert learn_theory_clause({-3}) == (3,)
    # the clause is in clause order, by variable
    assert learn_theory_clause(frozenset({5, -2, 3})) == (2, -3, -5)


def test_learning_is_exercised_and_invariant(gap01):
    g_on, _, _ = pipeline(gap01, learning=True)
    g_off, _, _ = pipeline(gap01, learning=False)
    assert g_on.stats.learned > 0
    assert st.count(g_on) == st.count(g_off) == 3


def test_no_core_minimisation_without_learning(monkeypatch):
    """With learning off nothing reads a core, so none is minimised."""

    def no_minimize(*args, **kwargs):
        raise AssertionError("core minimised with learning off")

    conflicts = 0
    assert_literal = st.lra.TheoryState.assert_literal

    def counting(self, lit):
        nonlocal conflicts
        conflict = assert_literal(self, lit)
        conflicts += conflict is not None
        return conflict

    monkeypatch.setattr(st.compiler.lra, "minimize_core", no_minimize)
    monkeypatch.setattr(st.lra.TheoryState, "assert_literal", counting)
    for seed in range(20):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            g, _, _ = pipeline(f, learning=False)
            assert st.count(g) == st.brute_counts(f)[1]
    assert conflicts > 0


def test_every_conflict_is_an_audited_refutation(monkeypatch):
    """A theory conflict is the refutation of the trail plus the asserted
    literal: infeasible, with a core of that literal and trail literals
    only and a certificate that verifies on the core; the trail stays as
    it was."""
    assert_literal = st.lra.TheoryState.assert_literal
    conflicts = 0

    def checking(self, lit):
        nonlocal conflicts
        trail = list(self.trail)
        r = assert_literal(self, lit)
        if r is not None:
            conflicts += 1
            assert not r.sat
            assert lit in r.core and r.core <= set(trail) | {lit}, (lit, trail, r.core)
            assert st.verify_certificate(self.table, r.core, r.certificate)
            assert self.trail == trail
        return r

    monkeypatch.setattr(st.lra.TheoryState, "assert_literal", checking)
    for seed in range(200):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            pipeline(f)
    pipeline(st.parse_smt2(real_chain_text(10)))
    assert conflicts > 200, conflicts


def test_learned_clauses_join_the_watched_engine():
    """Each learned clause is watched from then on, so the search meets
    fewer theory conflicts with learning on, and counts do not move."""
    conflicts = {True: 0, False: 0}
    for seed in range(50):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            prop, amap = st.boolean_abstract(f)
            db = st.to_cnf(prop)
            counts = []
            for learning in (True, False):
                search = st.compiler._Search(db, amap, st.CompileConfig(learning=learning))
                root = search.run()
                counts.append(st.count(search.builder.finish(root, amap, has_tags=True)))
                assert len(search.index.clauses) == len(db.clauses) + search.stats.learned
                conflicts[learning] += search.stats.conflicts
            assert counts[0] == counts[1]
    assert conflicts[True] < conflicts[False]


def test_a_compile_leaves_the_store_as_it_found_it(monkeypatch):
    """Every literal a search assigns through the clause store is undone:
    after the run nothing is assigned, no input clause counts a true
    literal, each variable counts every clause it occurs in, each count
    level is the mask of exactly the variables with that count, and the
    store holds the input clauses plus one per learned core."""
    run = st.compiler._Search.run
    checked = 0

    def checked_run(self):
        nonlocal checked
        root = run(self)
        store = self.index
        assert store.trail == [] and set(store.values) == {None}
        assert not any(store.true)
        assert store.counts == [len(ids) for ids in store.occurs]
        variables = range(1, len(store.counts))
        assert store.levels == [
            _mask(v for v in variables if store.counts[v] == c) for c in range(len(store.levels))
        ]
        assert len(store.clauses) == len(self.db.clauses) + self.stats.learned
        checked += 1
        return root

    monkeypatch.setattr(st.compiler._Search, "run", checked_run)
    for seed in range(200):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            pipeline(f)
            if seed < 60:
                pipeline(f, mode="eager")
    for n in (6, 8, 10):
        pipeline(st.parse_smt2(real_chain_text(n)))
    for n in (100, 200, 400):
        st.compile(*bool_chain(n))
    assert checked == 400 + 120 + 6


# ---------------------------------------------------------------------------
# compile end-to-end


def test_compile_gap_xy_lazy(gap_xy):
    g, _, _ = pipeline(gap_xy)
    assert st.count(g) == 3
    # no captured assignment makes both strict comparisons true, i.e.
    # sets both atoms (their non-strict complements) false
    for assignment in st.enumerate_models(g):
        assert not (assignment[1] is False and assignment[2] is False)


def test_compile_gap_xy_agnostic(gap_xy):
    g, _, _ = pipeline(gap_xy, mode="agnostic")
    assert st.count(g) == 4


def test_compile_gap01_counts(gap01):
    assert st.count(pipeline(gap01)[0]) == 3
    assert st.count(pipeline(gap01, mode="agnostic")[0]) == 5


def test_compile_unsat():
    f = st.parse_smt2("(declare-const x Real)(assert (and (<= x 0) (>= x 1)))")
    g, _, _ = pipeline(f)
    assert st.count(g) == 0
    assert len(g) == 1 and g.nodes[g.root].kind == "F"


def test_compile_trivial_true():
    f = st.parse_smt2("(assert true)")
    g, _, _ = pipeline(f)
    assert st.count(g) == 1


def test_compile_deep_chain_within_recursion_limit():
    """The search keeps its frames on an explicit stack, so the chain at
    n = 800, too deep for a recursive search under the interpreter's
    default recursion limit, compiles under that limit."""
    db, amap = bool_chain(800)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        models = st.count(st.compile(db, amap, st.CompileConfig()))
    finally:
        sys.setrecursionlimit(limit)
    a, b = 0, 1
    for _ in range(802):
        a, b = b, a + b
    assert models == a  # Fibonacci F(802): no two neighbours both false


def test_theory_propagation_tags():
    """Branching inside an entangled residual makes the solver imply literals."""
    text = """
    (declare-const x Real)(declare-const y Real)
    (assert (or (< (+ x y) 5) (> (+ x y) 6)))
    (assert (or (< x 3) (> x 5)))
    (assert (or (< y 0) (> y 4)))
    """
    f = st.parse_smt2(text)
    g, db, amap = pipeline(f)
    agn, aware = st.brute_counts(f)
    assert st.count(g) == aware
    assert g.stats.theory_props > 0
    assert g.stats.theory_witness_hits > 0
    assert any(n.kind == "L" and n.implied for n in g.nodes)
    condensed = st.condense(g)
    assert not any(n.kind == "L" and n.implied for n in condensed.nodes)


def test_pure_boolean_input_runs_no_theory(monkeypatch):
    def no_theory(*args):
        raise AssertionError("theory work on a formula without linear atoms")

    monkeypatch.setattr(st.compiler.lra, "TheoryState", no_theory)
    monkeypatch.setattr(st.compiler._Search, "_theory_candidates", no_theory)
    f = st.parse_smt2("(declare-const A Bool)(declare-const B Bool)(assert (or A B))")
    g, _, _ = pipeline(f)
    assert st.count(g) == 3
    assert g.stats.theory_checks == g.stats.theory_witness_hits == 0


def test_cache_reuse_is_sound():
    """Same residual under different entangling trails must not share."""
    text = """
    (declare-const x Real)(declare-const y Real)
    (assert (or (< (+ x y) 5) (> (+ x y) 6)))
    (assert (or (< x 3) (> x 5)))
    (assert (or (< y 0) (> y 4)))
    """
    f = st.parse_smt2(text)
    g_cache, _, _ = pipeline(f, cache=True)
    g_plain, _, _ = pipeline(f, cache=False)
    assert st.count(g_cache) == st.count(g_plain)
    _, aware = st.brute_counts(f)
    assert st.count(g_cache) == aware


def test_cache_hits_on_disjoint_copies():
    text = """
    (declare-const A Bool)(declare-const B Bool)(declare-const C Bool)
    (assert (or A B))(assert (or A C))
    (assert (or (not A) B))(assert (or (not B) C))
    """
    f = st.parse_smt2(text)
    g, _, _ = pipeline(f, mode="agnostic")
    assert g.stats.cache_hits + g.stats.cache_misses > 0


def test_stats_record_keys(gap_xy):
    g, _, _ = pipeline(gap_xy)
    record = g.stats.as_dict()
    assert list(record) == list(st.CompileStats().as_dict())
    assert record["nodes"] == len(g) and record["edges"] == g.edge_count
    assert record["wall_ms"] >= 0


def test_compile_structural_postconditions(gap_xy, gap01):
    for f in (gap_xy, gap01):
        for mode in ("lazy", "eager", "agnostic"):
            g, _, _ = pipeline(f, mode=mode)
            assert st.validate(g).ok


def test_root_scope_covers_all_atoms():
    """Totality: every accepted path assigns every atom, so the root scope
    is the full atom set whenever the formula is satisfiable.  A scope is a
    bitmask with bit v set for atom variable v."""
    for seed in range(15):
        f = st.random_formula(seed + 900, max_atoms=6, max_clauses=8)
        g, db, _ = pipeline(f)
        if st.count(g) > 0:
            assert g.scopes()[g.root] == sum(1 << v for v in range(1, db.num_atom_vars + 1))


@settings(max_examples=20)
@given(hst.integers(0, 10_000))
def test_config_invariance_random(seed):
    f = st.random_formula(seed, max_atoms=6, max_clauses=8)
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    _, aware = st.brute_counts(f)
    counts = set()
    for components, cache in itertools.product((True, False), repeat=2):
        cfg = st.CompileConfig(mode="lazy", components=components, cache=cache)
        counts.add(st.count(st.compile(db, amap, cfg)))
    assert counts == {aware}


@settings(max_examples=25)
@given(hst.integers(0, 10_000))
def test_nested_formulas_with_auxiliaries(seed):
    """Tseitin auxiliaries get branched and forced without distorting counts."""
    f = st.random_nested_formula(seed)
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    agn, aware = st.brute_counts(f)
    g_lazy = st.compile(db, amap, st.CompileConfig(mode="lazy"))
    g_agn = st.compile(db, amap, st.CompileConfig(mode="agnostic"))
    assert st.count(g_lazy) == aware
    assert st.count(g_agn) == agn
    assert st.validate(g_lazy).ok and st.validate(g_agn).ok
    if aware <= 4096:
        assert st.validate(g_lazy, level="theory", table=f.table).ok
