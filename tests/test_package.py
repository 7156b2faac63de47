import ast
import pkgutil
import types
from pathlib import Path

import isokit


def test_all_names_resolve_and_none_is_a_module():
    assert "GraphCurve" in isokit.__all__
    for name in isokit.__all__:
        assert not isinstance(getattr(isokit, name), types.ModuleType), name
    assert not {"core", "curves", "errors", "odes", "quadrature", "singular",
                "surfaces", "variational"} & set(isokit.__all__)


def _private_uses(source: str, modules: set) -> list:
    """Private names of isokit modules that the source reaches, as `module._name`:
    attributes `<module>._name` and imports `from .<module> import _name`."""
    nodes = list(ast.walk(ast.parse(source)))
    bound, hits = {}, []  # name bound in the source -> isokit module
    for node in filter(lambda n: isinstance(n, ast.ImportFrom), nodes):
        origin = ".".join(filter(None, ["isokit" if node.level else "", node.module]))
        for alias in node.names:
            if origin == "isokit" and alias.name in modules:
                bound[alias.asname or alias.name] = alias.name
            elif origin.startswith("isokit.") and alias.name.startswith("_"):
                hits.append(f"{origin.removeprefix('isokit.')}.{alias.name}")
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            hits.append(f"{bound[node.value.id]}.{node.attr}")
    return sorted(hits)


def test_no_module_uses_a_private_name_of_another_module():
    modules = {m.name for m in pkgutil.iter_modules(isokit.__path__)}
    assert {"cli", "surfaces", "odes"} <= modules
    sources = sorted(Path(isokit.__path__[0]).glob("*.py"))
    assert {p.stem for p in sources} == modules | {"__init__"}
    for path in sources:
        assert _private_uses(path.read_text(), modules) == [], path.name
    # the check sees both spellings of a private reach
    probe = "from . import surfaces as s\nfrom .odes import _unit_picard\ns._mesh(x)\n"
    assert _private_uses(probe, modules) == ["odes._unit_picard", "surfaces._mesh"]
