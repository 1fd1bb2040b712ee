"""The package's public surface: what `elaut/__init__.py` exports, and
the names that bench/tracer.py wraps."""

import importlib.util
import os
import types

import elaut

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


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


def test_every_traced_name_resolves():
    # bench/tracer.py swaps wrappers in for these names by setattr, so a
    # name that a refactor drops fails here, with its owner and name
    spec = importlib.util.spec_from_file_location("_elaut_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.SPANNED + tracer.COUNTED
    missing = [(owner.__name__, name) for owner, name, _ in traced
               if not callable(getattr(owner, name, None))]
    assert missing == []
    assert {name for _, name, _ in tracer.COUNTED} == set(
        tracer.MINTERM_OPS + tracer.BOOLEAN_OPS + ("new_edge",))
