"""The names perfbench/tracer.py rebinds must exist in every module it
patches and be the defining module's object.

This is the check Tracer.install makes before it rebinds anything, run
here without rebinding, so that removing or shadowing one of these names
in src/ fails the test suite and not only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.PATCHES


PATCHES = load_patches()


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_every_patched_name_is_the_defining_object(name):
    sites = PATCHES[name]
    home, attr = sites[0]
    original = getattr(importlib.import_module(home), attr)
    for module, attr in sites:
        mod = importlib.import_module(module)
        assert hasattr(mod, attr), f"{module}.{attr} is missing"
        assert getattr(mod, attr) is original, \
            f"{module}.{attr} is not {home}.{attr}"
