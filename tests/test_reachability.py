"""Every dataclass field under ``src/rhdlab`` is read somewhere.

A field that no code reads by name, as an attribute, in ``src/`` or
``tests/`` is a result nothing consumes (or an input nothing sets and
nothing checks); it should be deleted, not carried.  The scan is by name
only: a field counts as read when any ``<expr>.<name>`` load of the same
name exists, whatever the type of ``<expr>``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rhdlab"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(node):
    return any(ast.unparse(dec).startswith("dataclass")
               for dec in node.decorator_list)


def dataclass_fields():
    """``(module, class, field)`` of every dataclass field in the package."""
    fields = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend(
                    (path.stem, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name))
    return fields


def attribute_reads():
    """Every attribute name loaded anywhere in ``src/`` and ``tests/``."""
    return {node.attr
            for _, tree in _trees(ROOT / "src", ROOT / "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    fields = dataclass_fields()
    assert len(fields) > 20  # the scan sees the package's dataclasses
    reads = attribute_reads()
    unread = [f"{mod}.{cls}.{name}" for mod, cls, name in fields
              if name not in reads]
    assert not unread, f"dataclass fields nothing reads: {unread}"
