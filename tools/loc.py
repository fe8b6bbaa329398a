"""Line counts per module: raw lines, code lines and docstring lines.

Code lines are non-blank, not ``#`` comments and outside docstrings; the
docstrings are those of modules, classes and functions, found by ``ast``.

    python tools/loc.py [DIR]    # default: src/genlearn
"""

import ast
import sys
from pathlib import Path

_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple[int, int, int]:
    source = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code, len(docs)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/genlearn")
    rows = {path.name: counts(path) for path in sorted(root.glob("*.py"))}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    print(f"{'module':<20}{'raw':>7}{'code':>7}{'doc':>7}")
    for name, row in rows.items():
        print(f"{name:<20}" + "".join(f"{c:>7}" for c in row))
