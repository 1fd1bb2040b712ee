"""The package's public surface: what `elaut/__init__.py` exports."""

import types

import elaut


def test_all_lists_every_public_name_and_each_resolves():
    bound = {name for name, value in vars(elaut).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(elaut.__all__) == sorted(bound)
    assert len(set(elaut.__all__)) == len(elaut.__all__)
    # a star import resolves every listed name
    namespace = {}
    exec("from elaut import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(elaut.__all__)
