import importlib
import importlib.util
import os
import subprocess
import sys

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


def test_cli_import_leaves_scipy_unloaded():
    # scipy takes longer to import than the rest of the CLI's start-up, so
    # only the code paths that need it import it
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamtrack.__file__)))
    code = "import sys, beamtrack.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
