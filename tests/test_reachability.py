"""Every dataclass field under ``src/rhdlab`` is read somewhere, and every
derivative the package transforms comes from ``SpectralGrid``.

A field that no code reads by name, as an attribute, in ``src/`` or
``tests/`` is a result nothing consumes (or an input nothing sets and
nothing checks); it should be deleted, not carried.  The scan is by name
only: a field counts as read when any ``<expr>.<name>`` load of the same
name exists, whatever the type of ``<expr>``.

Spectral derivatives have one path: ``SpectralGrid.jacobian`` transforms
gradients and ``SpectralGrid.divergence`` forms divergences, so the
fields the solvers step and the ones the checks compare come from one
formula.  Outside ``fields.py`` no ``ifft`` call may read the derivative
multipliers ``ik`` in its arguments, as ``<expr>.ik`` or through a local
name bound to it.

Every configuration key is read: a key that no command asks for once the
file is loaded (and checked) is a setting that changes nothing, and
should be retired, not offered.
"""

import ast
from pathlib import Path

import rhdlab.cli as cli
from rhdlab.config import _SCHEMA, ExperimentConfig

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


def _reads(node, names):
    """Whether expression ``node`` reads ``<expr>.ik`` or one of ``names``."""
    return any((isinstance(n, ast.Attribute) and n.attr == "ik")
               or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def _aliases_of_ik(func):
    """Names that ``func`` binds to ``<expr>.ik`` itself; a tuple
    assignment pairs its elements."""
    names = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            value = node.value
            if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    and len(target.elts) == len(value.elts)):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            names.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                         and isinstance(v, ast.Attribute) and v.attr == "ik")
    return names


def ik_transforms():
    """``module.function:line`` of every ``ifft`` call outside ``fields.py``
    whose arguments read ``ik``, and the number of ``ifft`` calls scanned."""
    found, scanned = set(), 0
    for path, tree in _trees(PACKAGE):
        if path.name == "fields.py":
            continue
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = _aliases_of_ik(func)
            for call in ast.walk(func):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "ifft"):
                    scanned += 1
                    if any(_reads(arg, names) for arg in
                           call.args + [kw.value for kw in call.keywords]):
                        found.add(f"{path.stem}.{func.name}:{call.lineno}")
    return sorted(found), scanned


def test_derivatives_are_transformed_by_the_grid_only():
    found, scanned = ik_transforms()
    assert scanned > 5  # the scan sees the package's inverse transforms
    assert not found, (f"derivatives transformed outside SpectralGrid "
                       f"(use jacobian or divergence): {found}")


# each command at 16^2 with a horizon of two steps; the run also writes
# its reference and snapshots, so every key some command reads is read
KEY_WALK = ("[grid]\npoints_per_axis = 16\n"
            "[solver]\ndt = 0.002\nt_end = 0.004\nwith_reference = true\n"
            "[linearized]\ndt = 0.002\nt_end = 0.004\n"
            "[sweep]\ndeltas = 0.2,0.1,0.05\n"
            "[output]\nsnapshots = true\ndir = {out}\n")


def test_every_config_key_is_read(tmp_path, monkeypatch):
    reads, loaded = set(), []
    real_get, real_load = ExperimentConfig.get, cli.load_config

    def get(self, section, key):
        if loaded and loaded[-1] is self:
            reads.add(f"{section}.{key}")
        return real_get(self, section, key)

    def load(path):
        cfg = real_load(path)  # the load itself checks every key
        loaded.append(cfg)
        return cfg

    monkeypatch.setattr(ExperimentConfig, "get", get)
    monkeypatch.setattr(cli, "load_config", load)
    for command in ("run", "sweep", "reference", "linearized",
                    "verify-identities"):
        config = tmp_path / f"{command}.ini"
        # no --out: the output directory comes from output.dir
        config.write_text(KEY_WALK.format(out=tmp_path / command))
        assert cli.main([command, "--config", str(config)]) == 0, command
    assert len(loaded) == 5
    unread = [f"{section}.{key}" for section, keys in _SCHEMA.items()
              for key in keys if f"{section}.{key}" not in reads]
    assert not unread, f"config keys no command reads: {unread}"
