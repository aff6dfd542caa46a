#!/usr/bin/env python3
"""Count the code lines of Python files: the lines that hold a code token.

Blank lines, comments and docstrings do not count.  A docstring here is a
string statement that makes up a whole logical line, wherever it stands.
A token that spans lines (a multi-line string in an expression, say)
counts each line it spans.  Prints each file's count and the total.

    python3 scripts/loc.py src/smtrace/*.py
"""

import argparse
import io
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.COMMENT,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a code token."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            logical.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
    return len(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", type=Path, help="Python files to count")
    args = ap.parse_args()
    total = 0
    for path in args.files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
