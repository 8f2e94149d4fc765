"""Count the lines of ``src/limitlab`` that the ROADMAP tracks.

A counted line is a non-blank line outside the module, class and function
docstrings; comments count.  Prints one line per module and the total:

    python tests/count_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "limitlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counted_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for no, line in enumerate(text.splitlines(), 1) if line.strip() and no not in skip)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.name: counted_lines(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
