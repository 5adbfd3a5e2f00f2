"""Every name the benchmark uses exists in machmin.

``perfbench/tracer.py`` wraps each entry of its ``BOUNDARIES`` table: a
class attribute must sit in the class's own ``__dict__`` (a subclass that
inherits it would be wrapped on its base instead), and a module attribute
must exist.  ``perfbench/workloads.py`` reads ``<module>.<name>`` off the
machmin modules it imports.  And the first cycle of each workload, traced,
records a span at every boundary the workload declares.  A refactor that
renames, moves or deletes one, or stops calling it, fails here, not first in
a benchmark run.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@contextlib.contextmanager
def perfbench_imports():
    """perfbench's modules import one another by bare name: put perfbench on
    the path for the block, and write no bytecode under it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    with perfbench_imports():
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


def _workload_reads():
    """Every ``<machmin module>.<name>`` that perfbench/workloads.py reads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "machmin"
        for alias in node.names
    }
    return sorted(
        {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


WORKLOAD_READS = _workload_reads()


def test_workloads_read_machmin_modules():
    assert WORKLOAD_READS, "no machmin module attribute found in workloads.py"


@pytest.mark.parametrize(
    "module,attr", WORKLOAD_READS, ids=[f"{m}:{a}" for m, a in WORKLOAD_READS]
)
def test_workload_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module} has no {attr}"


with perfbench_imports():
    import worker
    import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cycle_records_every_declared_span(name):
    # the first cycle at seed 7, traced as a benchmark run traces its guard
    # set (worker.traced_items): no item fails, and every boundary in the
    # workload's spans is recorded
    workload = workloads.WORKLOADS[name]
    with perfbench_imports():
        (_, _, failures, _), per_item, _ = worker.traced_items(workload, 7, workload.cycle)
    assert failures == []
    seen = set().union(*(values["spans"] for values in per_item.values()))
    assert sorted(set(workload.spans) - seen) == []
