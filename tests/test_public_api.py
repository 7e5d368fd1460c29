import inspect

import symchain


def test_every_export_resolves():
    for name in symchain.__all__:
        assert hasattr(symchain, name), name


def test_exports_are_exactly_the_public_names():
    bound = {
        name
        for name, obj in vars(symchain).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(symchain.__all__) == sorted(bound)
    assert len(set(symchain.__all__)) == len(symchain.__all__)
