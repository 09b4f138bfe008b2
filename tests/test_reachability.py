"""Every dataclass field under ``src/rhdlab`` is read somewhere, and every
derivative the package transforms comes from ``SpectralGrid``.

A field that no code reads by name, as an attribute, in ``src/`` or
``tests/`` is a result nothing consumes (or an input nothing sets and
nothing checks); it should be deleted, not carried.  The scan is by name
only: a field counts as read when any ``<expr>.<name>`` load of the same
name exists, whatever the type of ``<expr>``.

Spectral derivatives reach point values through ``SpectralGrid``:
``SpectralGrid._slabs`` transforms the derivatives along x_0 that the
compressible solver and the right-hand sides sharing its derivative
fields hand it, and forms those along x_1, ..., x_{d-1} on their x_0
partials; ``SpectralGrid.jacobian`` transforms the gradients of the
reference's advection and the momentum form's Hessian; and
``SpectralGrid.divergence`` forms divergences.  So the fields the solvers
step and the ones the checks compare come from one formula.  Outside
``fields.py`` no ``ifft`` call may read the derivative multipliers ``ik``
in its arguments, as ``<expr>.ik`` or through a local name bound to it.

Every configuration key is read: a key that no command asks for once the
file is loaded (and checked) is a setting that changes nothing, and
should be retired, not offered.

Every defaulted parameter of a function or method under ``src/rhdlab``
is passed, by keyword or by position, by some call in ``src/``, or is on
a short list with its reason.  A default nothing overrides is a knob
nothing turns.  Calls are matched by the name of the function (of the
class, for ``__init__``), whatever they are called on; a method's
positions are counted without ``self``.
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


# The defaulted parameters no call in src/ passes, each with its reason
ONLY_OUTSIDE_SRC = {
    "cli.main(argv)": "the entry point, which perfbench and the tests drive",
    "linearized.solve_linearized(scheme)":
        "test-only knob: the matrix-exponential oracles step with imex2",
    "linearized.solve_linearized(cadence)":
        "test-only knob: the oracle tests observe a few states of long runs",
    "linearized.solve_linearized(keep_states)":
        "test-only knob: the oracle tests compare the stepped states",
    "identities.run_identity_suite(n_fields)":
        "test-only knob: the fault tests run the suite on fewer fields",
    "identities.run_identity_suite(fault)":
        "fault injection: the tests check that the suite catches each fault",
}


def defaulted_parameters():
    """``(label, callee, name, position)`` of every defaulted parameter in
    the package: ``callee`` is the name a call uses, ``position`` the
    index of a positional parameter in a call (None if keyword-only)."""
    found = []
    for path, tree in _trees(PACKAGE):
        for owner in ast.walk(tree):
            for func in ast.iter_child_nodes(owner):
                if not isinstance(func, ast.FunctionDef):
                    continue
                in_class = isinstance(owner, ast.ClassDef)
                method = in_class and "staticmethod" not in [
                    ast.unparse(dec) for dec in func.decorator_list]
                callee = owner.name if func.name == "__init__" else func.name
                qual = (f"{owner.name}." if in_class else "") + func.name
                a = func.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((f"{path.stem}.{qual}({arg.arg})", callee,
                                  arg.arg, i - method))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.append((f"{path.stem}.{qual}({arg.arg})",
                                      callee, arg.arg, None))
    return found


def passed_arguments():
    """``(callee, name or position)`` of every argument some call in
    ``src/`` passes; a starred argument passes every position from its
    own, and a ``**`` mapping every keyword (``"**"``)."""
    passed = set()
    for _, tree in _trees(ROOT / "src"):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            callee = (f.id if isinstance(f, ast.Name)
                      else f.attr if isinstance(f, ast.Attribute) else None)
            count = len(call.args)
            if any(isinstance(x, ast.Starred) for x in call.args):
                count = 64  # more positions than any signature here
            passed.update((callee, i) for i in range(count))
            passed.update((callee, "**" if kw.arg is None else kw.arg)
                          for kw in call.keywords)
    return passed


def test_every_defaulted_parameter_is_passed():
    found = defaulted_parameters()
    assert len(found) > 20  # the scan sees the package's defaults
    passed = passed_arguments()
    unpassed = sorted(
        label for label, callee, name, position in found
        if not {(callee, name), (callee, "**"), (callee, position)} & passed)
    assert unpassed == sorted(ONLY_OUTSIDE_SRC), (
        f"defaulted parameters no call in src/ passes: "
        f"{sorted(set(unpassed) - set(ONLY_OUTSIDE_SRC))}; listed but "
        f"passed or gone: {sorted(set(ONLY_OUTSIDE_SRC) - set(unpassed))}")
