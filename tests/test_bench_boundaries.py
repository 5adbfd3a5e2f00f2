"""Every boundary the benchmark tracer instruments exists in machmin.

``perfbench/tracer.py`` wraps each entry of its ``BOUNDARIES`` table: a
class attribute must sit in the class's own ``__dict__`` (a subclass that
inherits it would be wrapped on its base instead), and a module attribute
must exist.  A refactor that renames or moves one fails here, not first in
a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module,path,span",
    tracer.BOUNDARIES,
    ids=[f"{module}:{path}" for module, path, _ in tracer.BOUNDARIES],
)
def test_boundary_resolves(module, path, span):
    owner, attr = tracer._resolve(module, path)
    if inspect.isclass(owner):
        assert attr in owner.__dict__, f"{path} is not defined on the class itself"
        target = owner.__dict__[attr]
    else:
        assert hasattr(owner, attr), f"{module} has no {attr}"
        target = getattr(owner, attr)
    assert callable(target) or isinstance(target, (classmethod, staticmethod))
