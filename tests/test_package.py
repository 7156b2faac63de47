import types

import isokit


def test_all_names_resolve_and_none_is_a_module():
    assert "GraphCurve" in isokit.__all__
    for name in isokit.__all__:
        assert not isinstance(getattr(isokit, name), types.ModuleType), name
    assert not {"core", "curves", "errors", "odes", "quadrature", "singular",
                "surfaces", "variational"} & set(isokit.__all__)
