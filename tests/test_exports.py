import inspect

import pytest

from replink import analytic, cli, engine, params, protocol


@pytest.mark.parametrize(
    "module", [analytic, cli, engine, params, protocol], ids=lambda module: module.__name__
)
def test_all_lists_exactly_the_public_functions_and_classes(module):
    # __all__ is the package's only import surface
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(exported)) == []
