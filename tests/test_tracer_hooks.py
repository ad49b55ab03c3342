"""The benchmark's span tracer (perfbench/spans.py) wraps depaft entry
points by name, and its workloads read a few more.  A rename or deletion
of any of them fails here instead of in the next traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import depaft
from depaft import studies, tuning

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """Every attribute of every depaft module and class, by owner."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "depaft" or name.startswith("depaft.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("depaft")]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_puts_every_original_back():
    spans = _spans_module()
    before = _attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [(owner, attr) for owner, attr, _ in tracer._undo]
        targets = {(owner, attr) for owner, attr, _, _ in spans._ENTRY_POINTS}
        assert targets <= set(wrapped)
        assert all(vars(owner)[attr] is not before[(id(owner), attr)] for owner, attr in wrapped)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_names_the_benchmark_workloads_read_exist():
    assert callable(studies.grid_points) and studies.STUDY2_CS
    assert callable(tuning.concordance)
    config = depaft.StudyConfig(study=2, repetitions=1, seed=7)
    assert [p.c for p in studies.grid_points(config)] == list(studies.STUDY2_CS)
