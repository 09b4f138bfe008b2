"""Count the code lines of ``src/rhdlab``: lines that hold code, not counting
docstrings, comments or blank lines; the public names each module lists
in ``__all__``; and the configuration keys of ``config._SCHEMA``.

Usage: ``python3 tools/code_lines.py [PACKAGE_DIR]`` from the repository
root.  Prints a header, one ``<lines>  <names>  <module>`` row per module,
the totals, and last the number of configuration keys.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` with a token that is neither a comment nor part
    of a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def public_names(source: str) -> int:
    """Entries of the module-level ``__all__`` list of ``source`` (0 if none)."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return len(node.value.elts)
    return 0


def config_keys(source: str) -> int:
    """Keys of the module-level ``_SCHEMA`` dict of dicts of ``source``
    (0 if none)."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_SCHEMA"
                        for t in node.targets)
                and isinstance(node.value, ast.Dict)):
            return sum(len(section.keys) for section in node.value.values
                       if isinstance(section, ast.Dict))
    return 0


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "rhdlab"
    total = total_names = 0
    print("  code  __all__  module")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        count, names = code_lines(source), public_names(source)
        total += count
        total_names += names
        print(f"{count:6d}  {names:7d}  {path.name}")
    print(f"{total:6d}  {total_names:7d}  total")
    config = package / "config.py"
    keys = config_keys(config.read_text()) if config.is_file() else 0
    print(f"{keys:6d}  config keys")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
