import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import beamtrack
from beamtrack import dynamics, engine
from beamtrack.arrays import ArrayConfig
from beamtrack.trackers import DiminishingStep, alpha_star

PERFBENCH_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_exported_name_resolves():
    missing = [name for name in beamtrack.__all__ if not hasattr(beamtrack, name)]
    assert not missing
    assert len(set(beamtrack.__all__)) == len(beamtrack.__all__)


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_hooks_resolve():
    # the benchmark wraps these module attributes; a rename must not drop a layer
    tracing = _perfbench_tracing()
    assert tracing.HOOKS
    missing = [
        f"beamtrack.{module}.{attr}"
        for module, attr, *_ in tracing.HOOKS
        if not hasattr(importlib.import_module(f"beamtrack.{module}"), attr)
    ]
    assert not missing


# engine hooks each algorithm's chunk must call through the module attribute
_ENGINE_HOOKS_CALLED = {"codebook_directions", "dirichlet", "step_size", "trial_streams"}
_ALGORITHM_HOOKS_CALLED = {"ls": {"sweep_matrix"}, "cs": {"cs_dictionary"}, "kf": {"weighted_dirichlet"}}


@pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
def test_engine_calls_perfbench_hooks_live(monkeypatch, algorithm):
    # a function captured before the benchmark swaps the attribute would
    # bypass the wrapper and silently zero that layer of a traced run
    called = set()

    def wrap(name, fn):
        def hooked(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return hooked

    for module, attr, *_ in _perfbench_tracing().HOOKS:
        if module == "engine":
            monkeypatch.setattr(engine, attr, wrap(attr, getattr(engine, attr)))
    cfg = ArrayConfig(8, 0.5)
    setup = engine.TrialSetup(
        algorithm=algorithm, cfg_track=cfg, cfg_data=cfg, rho=10.0, stage1_rho=10.0, beta=1.0, pilot=1.0,
        no_noise=False, schedule=DiminishingStep(alpha_star(cfg)),
        model=dynamics.FixedVelocity(0.01, theta0=0.3), n_slots=5, m0=16, base_seed=1,
    )
    engine.run_chunk(setup, 0, 3)
    missing = (_ENGINE_HOOKS_CALLED | _ALGORITHM_HOOKS_CALLED.get(algorithm, set())) - called
    assert not missing


def test_cli_import_leaves_scipy_unloaded():
    # scipy takes longer to import than the rest of the CLI's start-up, so
    # only the code paths that need it import it
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamtrack.__file__)))
    code = "import sys, beamtrack.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # a run on one worker opens no pool, so only harness._open_pool imports
    # concurrent.futures and multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamtrack.__file__)))
    code = "import sys, beamtrack.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
