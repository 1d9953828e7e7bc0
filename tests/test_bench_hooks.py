"""The traced benchmark (``matchbench/run.py --trace 1``) wraps library
functions and methods by name. Renaming one of them in ``src/`` breaks that
run, so patching every hook and restoring it is checked here too. Nothing in
``matchbench/`` is changed."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "matchbench"))

import measure  # noqa: E402
import spans  # noqa: E402


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
