"""The package exports only what its own modules read.

A name that ``toricgh/__init__.py`` exports must be read somewhere else in
``src/toricgh``: imported, or loaded as a name or an attribute.  Its own
``def`` or ``class`` is not a read, nor is a store (``self.x = ...`` or
a dataclass field), and neither is a read inside a function, method or
class that nothing else reads in turn, so a layer that only tests reach
(a class and the helpers that build it) is caught as a whole.  The
public members of ``FaceLattice`` and of the geometric objects
(``GeometricPolytope``, ``Cone``, ``Shelling``, ``Framework``) are held
to the same rule.  perfbench reads a few names by module path; those
must stay.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

from toricgh import toric
from toricgh.geometry import cone_over, facet_enumeration
from toricgh.lattice import FaceLattice, point_lattice
from toricgh.rigidity import build_framework
from toricgh.shelling import line_shelling

SRC = Path(__file__).resolve().parents[1] / "src" / "toricgh"


def _reads(node):
    """Names and attributes loaded (not stored) in ``node``, and names it imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _units(tree):
    """(name, owner, reads) per function, class and method; module-level code has no name."""
    units = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((stmt.name, None, _reads(stmt)))
        elif isinstance(stmt, ast.ClassDef):
            methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = [s for s in stmt.body if s not in methods] + stmt.bases + stmt.decorator_list
            units.append((stmt.name, None, set().union(*map(_reads, rest))))
            units += [(m.name, stmt.name, _reads(m)) for m in methods]
        else:
            units.append((None, None, _reads(stmt)))
    return units


def _live_reads():
    """Every name read by live code of the modules other than ``__init__``.

    Code is live unless it is a function, method or class whose name no
    other live code reads (dunder methods live with their class); the
    dead units are dropped until none is left to drop.
    """
    units = [u for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for u in _units(ast.parse(path.read_text()))]
    live = list(range(len(units)))
    while True:
        tops = {units[k][0] for k in live if units[k][1] is None}

        def is_live(k):
            name, owner, _ = units[k]
            if owner is not None and owner not in tops:
                return False
            if name is None or (owner is not None and name.startswith("__")):
                return True
            return any(name in units[j][2] for j in live if j != k)

        kept = [k for k in live if is_live(k)]
        if kept == live:
            return set().union(*(units[k][2] for k in live))
        live = kept


def test_every_export_is_read_inside_the_package():
    init = ast.parse((SRC / "__init__.py").read_text())
    exports = [
        alias.asname or alias.name
        for stmt in init.body if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]
    assert exports
    reads = _live_reads()
    assert [name for name in exports if name not in reads] == []


PERFBENCH_MEMBERS = ("leq", "is_simplicial", "dual", "interval", "face", "quotient", "to_json")


def test_names_perfbench_reads_by_module_path():
    assert callable(toric.g1_closed) and callable(toric.simplicial_h)
    for attr in PERFBENCH_MEMBERS:
        assert hasattr(FaceLattice, attr), attr


def test_every_lattice_member_is_read_inside_the_package():
    # methods, properties and instance attributes alike
    members = {name for name in dir(point_lattice()) if not name.startswith("_")}
    reads = _live_reads()
    assert sorted(members - reads - set(PERFBENCH_MEMBERS)) == []


def _geometric_objects():
    p = facet_enumeration(list(product([0, 1], repeat=3)))
    return {"GeometricPolytope": p, "Cone": cone_over(p), "Shelling": line_shelling(p),
            "Framework": build_framework(p)}


@pytest.mark.parametrize("kind", ["GeometricPolytope", "Cone", "Shelling", "Framework"])
def test_every_geometric_member_is_read_inside_the_package(kind):
    obj = _geometric_objects()[kind]
    assert type(obj).__name__ == kind
    members = {name for name in dir(obj) if not name.startswith("_")}
    assert members and sorted(members - _live_reads()) == []
