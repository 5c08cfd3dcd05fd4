"""Print the code-line count of each module of src/frobring, largest first,
then the total.

A code line is a source line that holds a token, other than a line of a
comment or of the docstring of a module, class or function; blank lines
do not count.  A token that spans lines (a multi-line string) counts each
of them.

    python tools/code_lines.py [DIR]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    with path.open("rb") as f:
        held = {line for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED
                for line in range(tok.start[0], tok.end[0] + 1)}
    return len(held - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/frobring"
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
