import importlib
import importlib.util
import os

import beamtrack

PERFBENCH_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_exported_name_resolves():
    missing = [name for name in beamtrack.__all__ if not hasattr(beamtrack, name)]
    assert not missing
    assert len(set(beamtrack.__all__)) == len(beamtrack.__all__)


def test_perfbench_hooks_resolve():
    # the benchmark wraps these module attributes; a rename must not drop a layer
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [
        f"beamtrack.{module}.{attr}"
        for module, attr, *_ in tracing.HOOKS
        if not hasattr(importlib.import_module(f"beamtrack.{module}"), attr)
    ]
    assert not missing
