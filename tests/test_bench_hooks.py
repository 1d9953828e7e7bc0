"""The traced benchmark (``matchbench/run.py --trace 1``) wraps library
functions and methods by name, its input generator
(``matchbench/generate.py``) calls ``synth``, ``calibration``, ``traffic`` and
the other modules by name, and its measured process (``matchbench/measure.py``)
reads those inputs through the program's file readers. Renaming one of them in
``src/`` breaks the benchmark, so patching every hook and restoring it, and
generating, setting up and matching a small copy of each workload, are checked
here too. Nothing in ``matchbench/`` is changed."""
import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "matchbench"))

import generate  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_trace_hook_patches_and_restores():
    tracer = spans.Tracer()
    try:
        measure._patch_all(tracer)
        patched = list(tracer._patched)
        assert patched
        assert all(_current(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(_current(owner, attr) is original for owner, attr, original in patched)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_input_generator_runs_on_a_small_copy_of_each_workload(tmp_path, name):
    small = dataclasses.replace(workloads.WORKLOADS[name], grid=6, vehicles=1, od_steps=(3, 6))
    meta = generate.generate(small, 0, str(tmp_path))
    assert meta["links"] == 120 and sum(meta["trajectories_per_slice"]) > 0
    # the measured process's own set-up and one match of a slice with trips
    k = next(k for k, n in enumerate(meta["trajectories_per_slice"]) if n)
    session, trajectories = measure.setup(small, str(tmp_path), k, spans.NullTracer())
    assert len(trajectories) == meta["trajectories_per_slice"][k]
    assert (len(session.history) > 0) == (small.matched_trip is not None)  # the warm log
    records = session.run(trajectories, jobs=1, feedback=True)
    assert sorted(r.trajectory_id for r in records) == sorted(t.id for t in trajectories)
