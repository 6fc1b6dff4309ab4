"""The benchmark's tracer still fits the library.

``perfbench/layers.py`` wraps named socmorse functions and reads their
arguments by name; a renamed function or parameter breaks only traced
benchmark runs.  These tests import ``perfbench/run.py``, ``tracer.py`` and
``layers.py`` as they are, install the tracer on the namespace
``run.import_socmorse`` builds, and call every traced function once.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every argument a ``layers.install`` name or work callback reads, by function.
READ_ARGUMENTS = {
    ("pulse_design", "invariant_residual"): ("schedule", "t"),
    ("dynamics_two_level", "propagate"): ("spec", "settings"),
    ("dynamics_two_level", "propagate_nonlinear"): ("spec", "settings"),
    ("robustness", "scan_systematic"): ("spec", "lambdas"),
    ("robustness", "scan_noise"): ("lambdas_prime",),
    ("robustness", "bloch_propagate"): ("spec", "dt"),
    ("robustness", "stochastic_oracle"): ("spec", "trajectories", "dt"),
    ("dynamics_grid", "evolve"): ("fld", "spec", "schedule", "t_f", "dt"),
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import run
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, tracer, layers


@pytest.fixture()
def sm(bench):
    return bench[0].import_socmorse()


def test_traced_functions_accept_read_arguments(sm):
    for (module, name), wanted in READ_ARGUMENTS.items():
        params = inspect.signature(getattr(getattr(sm, module), name)).parameters
        missing = [arg for arg in wanted if arg not in params]
        assert not missing, f"{module}.{name} lacks {missing}"


def test_install_and_uninstall_restore_every_name(bench, sm):
    _, tracer_mod, layers = bench
    before = {(mod, key): value for mod in vars(sm).values() if inspect.ismodule(mod)
              for key, value in vars(mod).items() if callable(value)}
    classmethods = dict(vars(sm.pulse_design.PulseSchedule))
    t = tracer_mod.Tracer()
    layers.install(t, sm)
    try:
        assert hasattr(sm.pulse_design.invariant_residual, "__wrapped__")
        assert hasattr(sm.dynamics_grid.evolve, "__wrapped__")
    finally:
        t.uninstall()
    assert all(vars(mod)[key] is value for (mod, key), value in before.items())
    assert dict(vars(sm.pulse_design.PulseSchedule)) == classmethods


def test_traced_calls_give_every_layer_metric(bench, sm, tmp_path):
    _, tracer_mod, layers = bench
    pd, tl, rb, gr = sm.pulse_design, sm.dynamics_two_level, sm.robustness, sm.dynamics_grid
    t = tracer_mod.Tracer()
    layers.install(t, sm)
    try:
        morse = sm.morse.MorseSpec(8.0)
        me = sm.morse.matrix_elements(0, 1, 1.6, morse)
        spec_r = pd.TransferSpec(morse=morse)
        spec_t = pd.TransferSpec(morse=morse, scheme="so_direction")
        spec_i = pd.TransferSpec(morse=morse, scheme="so_direction_interacting", g11=0.3)
        sched_r = pd.design_scheme1(spec_r, me)
        sched_t = pd.design_scheme2(spec_t, me)
        sched_i = pd.design_scheme2_interacting(spec_i, me)
        assert pd.invariant_residual(sched_t, 5.0) <= 1e-8
        csv_path, _ = sched_r.to_csv(tmp_path / "schedule.csv")
        pd.PulseSchedule.from_csv(csv_path)
        coarse = sm.numerics.OdeSettings(step=1e-2)
        tl.propagate(spec_r, me, sched_r, coarse)
        tl.propagate_nonlinear(spec_i, me, sched_i, coarse)
        rb.scan_systematic(spec_t, sched_t, np.array([0.0, 0.1]), coarse)
        rb.scan_noise(spec_t, sched_t, np.array([0.0, 0.5]), dt=1e-2)
        rb.stochastic_oracle(spec_t, sched_t, 0.5, trajectories=100, dt=1e-2)
        grid = gr.SpatialGrid(points=512)
        fld = gr.init_basis_state(grid, morse, 0, "up", 1.6)
        gr.evolve(fld, spec_r, sched_r, dt=1e-2, t_f=0.05)
        metrics = layers.layer_metrics(t, {}, 1.0, t.span_cost_s(calls=10),
                                       lambda start, end: 1.0, 1.0)
    finally:
        t.uninstall()
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    spans = {s.name for s in t.spans}
    assert {"pulse_design.design", "pulse_design.invariant_residual", "pulse_design.to_csv",
            "pulse_design.from_csv", "robustness.scan_systematic.linear",
            "robustness.bloch_propagate", "dynamics_grid.evolve.raman"} <= spans
    assert metrics["dynamics_two_level.rk4_steps"]["value"] > 0
    assert metrics["dynamics_grid.site_steps"]["value"] == 5 * 512
