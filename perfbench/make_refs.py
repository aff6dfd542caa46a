#!/usr/bin/env python3
"""Write refs.json: reference answers from the brute-force oracle.

    python3 perfbench/make_refs.py

For every sweep instance the benchmark can draw, and for the real chain at
each size, this parses the rendered SMT-LIB2 text and records the oracle's
atom count, theory-aware model count, weighted count and model set.  For the
random instances it also checks that the rendered text has the same oracle
counts as the generated ``Formula``, so the rendering changes no answer.
The benchmark itself never runs the oracle.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
from run import import_smtrace


def oracle_ref(st, text: str) -> dict:
    f = st.parse_smt2(text)
    models = [inputs.model_mask(m) for m in st.brute_enumerate(f)]
    atoms = len(f.table)
    return {
        "atoms": atoms,
        "count": len(models),
        "wcount": str(inputs.weighted_sum(models, atoms)),
        "models": sorted(models),
    }


def main() -> int:
    st = import_smtrace()
    start = time.perf_counter()
    sweep = {}
    for name, f in inputs.sweep_formulas(st, 0, inputs.POOL_SIZE):
        text = inputs.render(st, f)
        ref = oracle_ref(st, text)
        if st.brute_counts(st.parse_smt2(text)) != st.brute_counts(f):
            print(f"{name}: rendered text changes the oracle counts", file=sys.stderr)
            return 1
        sweep[name] = ref
    real = {str(n): oracle_ref(st, inputs.real_chain_text(n)) for n in inputs.REAL_CHAIN_SIZES}
    refs = {"sweep": sweep, "real-chain": real}
    inputs.REFS_PATH.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")
    chain = ", ".join(f"n={n}: {r['count']}" for n, r in real.items())
    print(
        f"wrote {inputs.REFS_PATH.name}: {len(sweep)} sweep instances, "
        f"real chain models {chain}, {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
