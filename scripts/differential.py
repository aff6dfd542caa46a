#!/usr/bin/env python3
"""Differential dump of compile results, for comparing two versions.

For every compile of a fixed set, records the model count, a weighted count
with mixed-denominator weights, SHA-256 hashes of the atom table
(``atom_to_str`` in id order), of the compiled CNF (``to_dimacs``) and of
the ``export_nnf`` text, and every ``CompileStats`` field except
``wall_ms``, as one JSON object keyed ``<group>/<instance>``.  The default
set has 3699 compiles:

- sweep seeds 0-204 of both generators, lazy mode under default settings,
  ``cache=False``, ``components=False`` and ``learning=False``, and agnostic
  mode under the first three;
- the same seeds in lazy mode parsed back from their SMT-LIB2 text, as the
  benchmark renders it (``perfbench/inputs.py``, imported, not changed),
  so that ``parse_smt2`` is on the compared path (group ``lazy parsed``);
- eager mode on sweep seeds 0-204 of both generators, every seed the
  benchmark's sweep windows draw;
- the real chain ``x_i <= x_{i+1} or x_i >= 5`` at n = 6, 8, 10, 24, 48,
  96 and the Boolean chain ``A_i or A_{i+1}`` at n = 100, 200, 400, lazy
  mode, parsed from the benchmark's text of each chain.

Without the ``learning=False`` and ``lazy parsed`` groups and the real
chain at n = 24, 48, 96, and with eager seeds 0-59, this is the
2586-compile set.
``--compare`` lists, field by field, the groups whose entries differ, with
how many differ and, for numeric fields, the group's sums on both sides and
how many entries rose and fell from A to B (``up k, down m``); it exits 1
when anything differs.

    PYTHONPATH=src python3 scripts/differential.py --out new.json
    PYTHONPATH=../old/src python3 scripts/differential.py --out old.json
    python3 scripts/differential.py --compare old.json new.json
"""

import argparse
import hashlib
import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WEIGHTS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(3, 10))

CONFIGS = (
    ("lazy", {}),
    ("lazy cache=False", {"cache": False}),
    ("lazy components=False", {"components": False}),
    ("lazy learning=False", {"learning": False}),
    ("agnostic", {"mode": "agnostic"}),
    ("agnostic cache=False", {"mode": "agnostic", "cache": False}),
    ("agnostic components=False", {"mode": "agnostic", "components": False}),
)


def weights(st, num_atom_vars: int):
    """Mixed denominators; the positive literals of variables 6, 12, ...
    weigh 0, and the negative literals of variables 3, 7, 11, ... have no
    weight."""
    w = st.WeightMap()
    for v in range(1, num_atom_vars + 1):
        w.set(v, True, WEIGHTS[v % len(WEIGHTS)])
        if v % 4 != 3:
            w.set(v, False, WEIGHTS[1 + v % (len(WEIGHTS) - 1)])
    return w


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(st, db, amap, cfg) -> dict:
    g = st.compile(db, amap, cfg)
    nnf_text, atoms_text = st.export_nnf(g, amap)
    out = {
        "count": st.count(g),
        "wcount": str(st.weighted_count(g, weights(st, g.num_atom_vars))),
        "atoms": sha256("\n".join(st.frontend.atom_to_str(a, amap.real_names) for a in amap.atoms)),
        "cnf": sha256(st.to_dimacs(db, amap)),
        "nnf": sha256(nnf_text + atoms_text),
    }
    out.update((k, v) for k, v in g.stats.as_dict().items() if k != "wall_ms")
    return out


def dump(args) -> dict:
    import smtrace as st  # here, so that --compare runs without smtrace on the path

    sys.path.insert(0, str(PERFBENCH))
    import inputs  # the benchmark's SMT-LIB2 rendering of a formula, and its chains

    def cnf(f):
        prop, amap = st.boolean_abstract(f)
        return st.to_cnf(prop), amap

    entries = {}
    for seed in range(max(args.seeds, args.eager_seeds)):
        for prefix, generate in (("f", st.random_formula), ("n", st.random_nested_formula)):
            name = f"{prefix}{seed}"
            db, amap = cnf(generate(seed))
            if seed < args.seeds:
                for group, kw in CONFIGS:
                    entries[f"{group}/{name}"] = record(st, db, amap, st.CompileConfig(**kw))
                parsed = st.parse_smt2(inputs.render(st, generate(seed)))
                entries[f"lazy parsed/{name}"] = record(st, *cnf(parsed), st.CompileConfig())
            if seed < args.eager_seeds:
                eager = st.eager_encode(db, amap)
                entries[f"eager/{name}"] = record(st, eager, amap, st.CompileConfig(mode="eager"))
    for group, make, sizes in (
        ("real chain", inputs.real_chain_text, args.real_sizes),
        ("bool chain", inputs.bool_chain_text, args.bool_sizes),
    ):
        for n in sizes:
            db, amap = cnf(st.parse_smt2(make(n)))
            entries[f"{group}/{n}"] = record(st, db, amap, st.CompileConfig())
    return entries


def compare(a: dict, b: dict) -> int:
    only = sorted(set(a) ^ set(b))
    for key in only:
        print(f"only in {'a' if key in a else 'b'}: {key}")
    shared = [k for k in a if k in b]
    groups = defaultdict(list)
    for key in shared:
        groups[key.rsplit("/", 1)[0]].append(key)
    fields = sorted({f for k in shared for f in a[k]} | {f for k in shared for f in b[k]})
    rows = []  # (field, group, the rest of the line)
    for field in fields:
        for group, keys in groups.items():
            diff = [k for k in keys if a[k].get(field) != b[k].get(field)]
            if not diff:
                continue
            rest = f"{len(diff)} of {len(keys)} differ"
            if all(isinstance(a[k].get(field), int) and isinstance(b[k].get(field), int) for k in keys):
                up = sum(b[k][field] > a[k][field] for k in diff)
                rest += f"; sum {sum(a[k][field] for k in keys)} -> {sum(b[k][field] for k in keys)}"
                rest += f"; up {up}, down {len(diff) - up}"
            rows.append((field, group, rest))
    if rows:  # columns as wide as the longest field and group printed
        fw, gw = max(len(r[0]) for r in rows), max(len(r[1]) for r in rows)
        for field, group, rest in rows:
            print(f"{field:{fw}} {group:{gw}} {rest}")
    print(f"{len(shared)} entries compared, {len(rows)} (field, group) pairs differ")
    return 1 if rows or only else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=205, help="sweep seeds 0..N-1 of each generator")
    ap.add_argument("--eager-seeds", type=int, default=205, help="sweep seeds compiled in eager mode")
    ap.add_argument("--real-sizes", type=int, nargs="*", default=[6, 8, 10, 24, 48, 96])
    ap.add_argument("--bool-sizes", type=int, nargs="*", default=[100, 200, 400])
    ap.add_argument("--out", help="write the dump here instead of stdout")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = ap.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return compare(json.load(fa), json.load(fb))
    text = json.dumps(dump(args), indent=0, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
