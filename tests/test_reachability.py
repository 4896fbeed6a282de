"""Every public top-level function and class of bolab, and every public
method of a public class, has a caller.

A public name of ``src/bolab`` counts as reached when one of these refers to
it: the package itself (outside a top-level name's own definition; a method's
own body is part of its class), the demos, the benchmark harness, or the
acceptance gates.  The other tests do not count:
a reference implementation that only a test compares against belongs in that
test, not in the library.

References are read with ``ast``: names, attribute accesses, imported names,
and string constants that spell a name or a dotted path ending in one (the
benchmark tracer names its targets that way).  Docstrings, comments and
``__all__`` lists do not count.  Names are matched by spelling, so a
function that shares its name with an attribute read elsewhere (``phase``,
say) counts as reached.  An attribute read on a module imported with
``import`` that is not bolab (``json.load``, ``np.abs``) belongs to that
module and does not count: ``json.load`` once made ``Trajectory.load``
look reached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bolab"
CALLERS = [ROOT / "demos", ROOT / "benchmarks", ROOT / "tests" / "test_acceptance.py"]
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_export_list(node):
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


def _foreign_modules(tree):
    """Names that ``import`` statements of the tree bind to modules other
    than bolab."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "bolab"}


def _references(tree, foreign=None):
    """Names a syntax tree refers to, skipping docstrings and ``__all__``;
    attributes of the ``foreign`` module names (by default, those the tree
    imports) are not references."""
    if foreign is None:
        foreign = _foreign_modules(tree)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                docstrings.add(id(body[0].value))
    skipped = set()
    for node in ast.walk(tree):
        if _is_export_list(node):
            skipped.update(id(sub) for sub in ast.walk(node))
    refs = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in foreign):
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and _DOTTED.fullmatch(node.value)):
            refs.update(node.value.split("."))
    return refs


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def _definitions():
    """(dotted name, name) of every public top-level def and class, and of
    every public method of a public class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if not _public(stmt, _DEFS):
                continue
            out.append((f"{path.stem}.{stmt.name}", stmt.name))
            if isinstance(stmt, ast.ClassDef):
                out += [(f"{path.stem}.{stmt.name}.{sub.name}", sub.name)
                        for sub in stmt.body if _public(sub, _FUNCS)]
    return out


def _package_references():
    """References inside the package, each top-level statement's own name
    left out.  A method's definition is not a reference to it."""
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        foreign = _foreign_modules(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            refs |= _references(stmt, foreign) - {own}
    return refs


def _caller_references():
    refs = set()
    for place in CALLERS:
        files = [place] if place.is_file() else sorted(place.rglob("*.py"))
        for path in files:
            refs |= _references(_parse(path))
    return refs


def test_every_public_name_is_reached():
    definitions = _definitions()
    callers = _caller_references()
    # a scan that found nothing would pass vacuously
    assert len(definitions) > 50
    assert "nfe.NfeReport.summary" in {dotted for dotted, _ in definitions}
    assert {"main", "nfe_residual", "evolve_gauged"} <= callers
    reached = _package_references() | callers
    unreached = [f"bolab.{dotted}"
                 for dotted, name in definitions if name not in reached]
    assert not unreached, (
        "public names that only tests (or nothing) reach; delete them or "
        f"move the reference implementation into its test: {unreached}")


def test_attributes_of_foreign_modules_are_not_references():
    # json.load spells Trajectory.load; an attribute of bolab's own modules,
    # of a class or of an object still counts
    refs = _references(ast.parse(
        "import json\nimport numpy as np\nimport bolab.spectral as sp\n"
        "from bolab import dynamics\n"
        "json.load(fh); np.abs(x); sp.read_snapshot(p)\n"
        "dynamics.Trajectory.save(t); t.field(0)\n"))
    assert not {"load", "abs"} & refs
    assert {"read_snapshot", "Trajectory", "save", "field"} <= refs
