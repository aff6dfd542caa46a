"""Command-line driver: parse -> abstract -> (eager encode) -> compile ->
export/count/enumerate/validate, with machine-readable statistics.

Exit codes: 0 success, 1 usage error, 2 parse/format error, 3 validation
failure (check subcommand).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import ddnnf, oracle
from .abstraction import boolean_abstract, to_cnf
from .compiler import MODES, CompileConfig, STAT_KEYS, compile as compile_cnf
from .ddnnf import DdnnfError, WeightMap, condense, export_nnf, import_nnf, validate
from .eager import eager_encode
from .frontend import SmtError, parse_smt2


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """An input file that is not UTF-8 text."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(message)


def _nonnegative(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


_COMPILE_FLAGS = ("--mode", "--eager-k", "--no-components", "--no-cache", "--no-learning")


def _add_compile_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every subcommand that compiles an .smt2 input.  Each
    defaults to None, so that a flag given can be told from one left out."""
    p.add_argument("--mode", choices=MODES, help="default: lazy")
    p.add_argument("--eager-k", type=_nonnegative, help="max core size for eager mode")
    p.add_argument("--no-components", action="store_true", default=None)
    p.add_argument("--no-cache", action="store_true", default=None)
    p.add_argument("--no-learning", action="store_true", default=None)


def _given_compile_flags(args) -> list[str]:
    return [flag for flag in _COMPILE_FLAGS if getattr(args, flag[2:].replace("-", "_")) is not None]


def _build_parser() -> _Parser:
    parser = _Parser(prog="smtrace", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compile", help="compile an .smt2 file to .nnf + .atoms")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output .nnf path")
    p.add_argument("--stats", choices=("text", "json"), default="text")
    p.add_argument("--condense", action="store_true", help="condense exported graph")
    _add_compile_flags(p)

    p = sub.add_parser("count", help="model count of an .smt2 file or compiled graph")
    p.add_argument("input", nargs="?")
    p.add_argument("--nnf")
    p.add_argument("--atoms")
    p.add_argument("--weights", help="weight file: '<signed-var> <p/q>' per line")
    _add_compile_flags(p)

    p = sub.add_parser("enumerate", help="enumerate captured assignments")
    p.add_argument("input")
    p.add_argument("--max", type=_nonnegative, default=4096, dest="cap")
    _add_compile_flags(p)

    p = sub.add_parser("check", help="run the d-DNNF validators on a compiled graph")
    p.add_argument("--nnf", required=True)
    p.add_argument("--atoms", required=True)
    p.add_argument("--theory", action="store_true")

    p = sub.add_parser("oracle", help="brute-force agnostic and aware counts")
    p.add_argument("input")

    return parser


def _config(args) -> CompileConfig:
    return CompileConfig(
        mode=args.mode or "lazy",
        components=not args.no_components,
        cache=not args.no_cache,
        learning=not args.no_learning,
    )


def _pipeline(path: str, cfg: CompileConfig, eager_k: int | None):
    formula = parse_smt2(_read(path))
    prop, amap = boolean_abstract(formula)
    db = to_cnf(prop)
    if cfg.mode == "eager":
        db = eager_encode(db, amap, eager_k)
    return compile_cnf(db, amap, cfg), amap


def _emit_stats(stats, fmt: str) -> None:
    record = stats.as_dict()
    record["wall_ms"] = round(record["wall_ms"], 3)
    if fmt == "json":
        print(json.dumps(record))
    else:
        for key in STAT_KEYS:
            print(f"{key} {record[key]}")


_WEIGHT_LINE = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+(?:/[0-9]+|\.[0-9]+)?)")  # ASCII numerals only


def _load_weights(path: str, num_atom_vars: int) -> WeightMap:
    wmap = WeightMap()
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        match = _WEIGHT_LINE.fullmatch(line)
        if not match:
            raise DdnnfError(f"{where}: expected '<signed-var> <p/q>' in ASCII digits")
        signed = int(match[1])
        try:
            value = Fraction(match[2])
        except ZeroDivisionError as exc:
            raise DdnnfError(f"{where}: {exc}") from exc
        if not 1 <= abs(signed) <= num_atom_vars:
            raise DdnnfError(f"{where}: {signed} is not a literal of atom variables 1..{num_atom_vars}")
        if value < 0:
            raise DdnnfError(f"{where}: weight {value} is negative")
        if signed in wmap.weights:
            raise DdnnfError(f"{where}: a second weight for literal {signed}")
        wmap.set(abs(signed), signed > 0, value)
    return wmap


def _load_graph(args):
    graph, _ = import_nnf(_read(args.nnf), _read(args.atoms))
    return graph


def _fmt_fraction(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _cmd_compile(args) -> int:
    out = Path(args.output)
    if out.with_suffix(".atoms") == out:
        raise _UsageError(f"-o {out}: the graph and its .atoms sidecar would be one file")
    cfg = _config(args)
    graph, amap = _pipeline(args.input, cfg, args.eager_k)
    out_graph = condense(graph) if args.condense else graph
    nnf_text, atoms_text = export_nnf(out_graph, amap)
    out.write_text(nnf_text)
    out.with_suffix(".atoms").write_text(atoms_text)
    _emit_stats(graph.stats, args.stats)
    return 0


def _cmd_count(args) -> int:
    if args.nnf:
        if not args.atoms:
            raise _UsageError("--nnf requires --atoms")
        if args.input:
            raise _UsageError("count takes an .smt2 input or --nnf/--atoms, not both")
        given = _given_compile_flags(args)
        if given:
            raise _UsageError(f"{given[0]} compiles an .smt2 input; a graph read with --nnf is not compiled")
        graph = _load_graph(args)
        violations = validate(graph).violations
        if violations:  # counting is exact only on a d-DNNF
            v = violations[0]
            raise DdnnfError(f"not a d-DNNF: {v.kind} at node {v.node}: {v.message}")
    elif args.input:
        graph, _ = _pipeline(args.input, _config(args), args.eager_k)
    else:
        raise _UsageError("count needs an .smt2 input or --nnf/--atoms")
    if args.weights:
        weights = _load_weights(args.weights, graph.num_atom_vars)
        print(_fmt_fraction(ddnnf.weighted_count(graph, weights)))
    else:
        print(ddnnf.count(graph))
    return 0


def _cmd_enumerate(args) -> int:
    graph, _ = _pipeline(args.input, _config(args), args.eager_k)
    for assignment in ddnnf.enumerate_models(graph, cap=args.cap):
        signed = [var if val else -var for var, val in sorted(assignment.items())]
        print(" ".join(str(s) for s in signed))
    return 0


def _cmd_check(args) -> int:
    graph = _load_graph(args)
    level = "theory" if args.theory else "structural"
    report = validate(graph, level=level)
    print(f"{len(report.violations)} violations")
    for v in report.violations:
        where = f" node {v.node}" if v.node is not None else ""
        extra = f" assignment {dict(v.assignment)}" if v.assignment is not None else ""
        print(f"{v.kind}{where}{extra}: {v.message}")
    return 0 if report.ok else 3


def _cmd_oracle(args) -> int:
    formula = parse_smt2(_read(args.input))
    agnostic, aware = oracle.brute_counts(formula)
    print(f"agnostic {agnostic}")
    print(f"aware {aware}")
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.cmd](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SmtError, DdnnfError, oracle.TooLargeError, OSError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
