"""Line counts per module: raw lines, code lines and docstring lines, and options.

Code lines are non-blank, not ``#`` comments and outside docstrings; the
docstrings are those of modules, classes and functions, found by ``ast``.
Options are the defaulted parameters (positional and keyword-only) of the
public functions and methods: those whose names do not start with ``_``,
and ``__init__``.

    python tools/loc.py [DIR]    # default: src/genlearn
"""

import ast
import sys
from pathlib import Path

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_OWNERS = (ast.Module, ast.ClassDef, *_FUNCTIONS)


def counts(path: Path) -> tuple[int, int, int, int]:
    source = path.read_text(encoding="utf-8")
    docs = set()
    options = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        if isinstance(node, _FUNCTIONS) and (node.name == "__init__" or node.name[0] != "_"):
            options += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    lines = source.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code, len(docs), options


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/genlearn")
    rows = {path.name: counts(path) for path in sorted(root.glob("*.py"))}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    print(f"{'module':<20}{'raw':>7}{'code':>7}{'doc':>7}{'options':>9}")
    for name, row in rows.items():
        print(f"{name:<20}" + "".join(f"{c:>7}" for c in row[:3]) + f"{row[3]:>9}")
