from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reduced_reference as reference
from helpers import constant_schedule
from reduced_reference import BlochState, InteractionSplit, bloch_rhs
from socmorse.dynamics_grid import SpatialGrid
from socmorse.dynamics_two_level import propagate, propagate_nonlinear
from socmorse.errors import DomainError, NumericalFailureError
from socmorse.numerics import OdeSettings
from socmorse.pulse_design import PulseSchedule
from socmorse.robustness import (
    bloch_propagate,
    scan_noise,
    scan_systematic,
    scan_systematic_grid,
    stochastic_oracle,
)


class TestBlochState:
    @given(u=st.floats(-0.7, 0.7), v=st.floats(-0.7, 0.7), w=st.floats(-0.7, 0.7))
    def test_density_matrix_round_trip(self, u, v, w):
        state = BlochState(u, v, w)
        again = BlochState.from_density_matrix(state.to_density_matrix())
        assert abs(again.u - u) <= 1e-12
        assert abs(again.v - v) <= 1e-12
        assert abs(again.w - w) <= 1e-12

    def test_density_matrix_properties(self):
        rho = BlochState(0.3, -0.4, 0.5).to_density_matrix()
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.allclose(rho, rho.conj().T)


class TestInteractionSplit:
    @given(g=st.tuples(*[st.floats(-2, 2)] * 4))
    def test_reconstruction_exact(self, g):
        split = InteractionSplit.from_constants(*g)
        assert split.reconstruct() == pytest.approx(g, abs=1e-15)

    def test_canonical_values(self):
        split = InteractionSplit.from_constants(0.3, 0.2, 0.115, 0.115)
        assert split.g_d == pytest.approx(0.05)
        assert split.g_s == pytest.approx(0.25)
        assert split.g_d_prime == 0.0
        assert split.g_s_prime == pytest.approx(0.115)


class TestBlochRhs:
    def test_unitary_limit_preserves_radius(self, ctx):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-0.5, 0.5, size=3)
            t = rng.uniform(0.1, 9.9)
            ds = bloch_rhs(s, float(t), ctx.spec_tilt, ctx.sched_tilt, 0.0)
            assert abs(float(np.dot(s, ds))) <= 1e-12

    def test_pure_dephasing_freezes_population(self, ctx):
        sched = constant_schedule(ctx.spec_tilt, ctx.me.M_coupling, 0.0, 2.9)
        ds = bloch_rhs([0.4, -0.1, 0.6], 3.0, ctx.spec_tilt, sched, 0.8)
        assert ds[2] == 0.0

    def test_matches_density_matrix_oracle(self, ctx):
        # rebuild the master equation in matrix form and compare components
        from reduced_reference import _symmetric_entries

        rng = np.random.default_rng(17)
        spec = ctx.spec_interacting
        sched = ctx.sched_compensated
        lam = 0.7
        for _ in range(10):
            s = rng.uniform(-0.4, 0.4, size=3)
            t = float(rng.uniform(0.1, 9.9))
            x, y, z, d = _symmetric_entries(spec, sched, t)
            h = 0.5 * np.array([[z, x + 1j * y], [x - 1j * y, -z]], dtype=complex)
            rho = BlochState(*s).to_density_matrix()
            g11, g22, g12, g21 = spec.g_effective
            p1, p2 = rho[0, 0].real, rho[1, 1].real
            h = h + np.diag([g11 * p1 + g12 * p2, g21 * p1 + g22 * p2])
            h_noise = 0.5 * d * np.diag([1.0, -1.0])
            rho_dot = -1j * (h @ rho - rho @ h) - 0.5 * lam**2 * (
                h_noise @ (h_noise @ rho - rho @ h_noise)
                - (h_noise @ rho - rho @ h_noise) @ h_noise
            )
            du = (rho_dot[0, 1] + rho_dot[1, 0]).real
            dv = (-1j * (rho_dot[0, 1] - rho_dot[1, 0])).real
            dw = (rho_dot[0, 0] - rho_dot[1, 1]).real
            got = bloch_rhs(s, t, spec, sched, lam)
            assert np.allclose(got, [du, dv, dw], atol=1e-10)

    def test_accepts_bloch_state(self, ctx):
        a = bloch_rhs(BlochState(0.1, 0.2, 0.3), 1.0, ctx.spec_tilt, ctx.sched_tilt, 0.5)
        b = bloch_rhs([0.1, 0.2, 0.3], 1.0, ctx.spec_tilt, ctx.sched_tilt, 0.5)
        assert np.allclose(a, b)

    def test_raman_schedule_rejected(self, ctx):
        with pytest.raises(DomainError):
            bloch_rhs([0, 0, 1], 1.0, ctx.spec_raman, ctx.sched_raman, 0.5)


class TestSystematicScan:
    def test_identity_point_is_unperturbed(self, ctx):
        res = scan_systematic(ctx.spec_tilt, ctx.sched_tilt, [0.0])
        assert res.fidelities[0] >= 1.0 - 1e-6

    def test_peak_at_zero(self, ctx):
        res = scan_systematic(ctx.spec_tilt, ctx.sched_tilt, [-0.3, 0.0, 0.3])
        assert res.fidelities[1] >= np.max(res.fidelities) - 1e-12

    def test_failures_recorded_and_scan_continues(self, ctx):
        # the Zeeman channel scaled by 1 + 1e300 overflows the amplitudes
        res = scan_systematic(ctx.spec_tilt, ctx.sched_tilt, [-0.1, 1e300, 0.1])
        assert len(res.failures) == 1
        assert res.failures[0][0] == 1
        assert np.isnan(res.fidelities[1])
        assert np.isfinite(res.fidelities[0]) and np.isfinite(res.fidelities[2])

    def test_empty_grid_rejected(self, ctx):
        with pytest.raises(DomainError):
            scan_systematic(ctx.spec_tilt, ctx.sched_tilt, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scan", ["systematic", "noise", "systematic_grid"])
    def test_non_finite_value_rejected(self, ctx, scan, bad):
        # a finite overflow is a recorded failure; a non-finite value is no point
        run = {"systematic": scan_systematic, "noise": scan_noise,
               "systematic_grid": partial(scan_systematic_grid,
                                          grid=SpatialGrid(points=512), dt=0.05)}[scan]
        with pytest.raises(DomainError, match="finite"):
            run(ctx.spec_tilt, ctx.sched_tilt, [0.0, bad])

    def test_grid_engine_spot_check(self, ctx):
        # the unperturbed point reproduces the full-grid fidelity of the
        # tilted-field design; offsets degrade it
        from socmorse.dynamics_grid import SpatialGrid

        res = scan_systematic_grid(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.2],
                                   grid=SpatialGrid(points=1024), dt=2e-3)
        assert res.fidelities[0] == pytest.approx(0.979, abs=0.005)
        assert res.fidelities[1] < res.fidelities[0]

    def test_grid_engine_narrow_grid_raises(self, ctx):
        with pytest.raises(DomainError):
            scan_systematic_grid(ctx.spec_tilt, ctx.sched_tilt, [0.0],
                                 grid=SpatialGrid(-5.0, 3.0, 512))


class TestZeemanTermHasOneHome:
    """A change to the reduced Zeeman term in ``reduced_terms`` reaches the
    systematic scan: its lambda = 0 point stays the plain propagation."""

    @pytest.mark.parametrize("case", ["tilt", "mean_field"])
    def test_shifted_zeeman_term_reaches_scan(self, ctx, monkeypatch, case):
        spec, sched, prop = ((ctx.spec_tilt, ctx.sched_tilt, propagate) if case == "tilt"
                             else (ctx.spec_interacting, ctx.sched_compensated,
                                   propagate_nonlinear))
        me = ctx.me
        original = PulseSchedule.reduced_terms

        def shifted(self, t):
            z, od = original(self, t)
            return z + 0.05, od

        monkeypatch.setattr(PulseSchedule, "reduced_terms", shifted)
        scanned = scan_systematic(spec, sched, [0.0]).fidelities[0]
        assert abs(scanned - prop(spec, me, sched).final_fidelity) <= 1e-12


SCANS = {
    # scan name -> (module and function each scan point calls, the scan)
    "systematic": ("socmorse.robustness", "step_amplitudes",
                   lambda ctx: scan_systematic(ctx.spec_tilt, ctx.sched_tilt,
                                               [-0.1, 0.0, 0.1])),
    "noise": ("socmorse.robustness", "bloch_propagate",
              lambda ctx: scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.1, 0.2])),
    "grid": ("socmorse.dynamics_grid", "evolve",
             lambda ctx: scan_systematic_grid(ctx.spec_tilt, ctx.sched_tilt,
                                              [-0.1, 0.0, 0.1],
                                              grid=SpatialGrid(points=1024))),
}


class TestScanFailureHandling:
    """Scans record physics failures per point, but a programming error in
    the propagator surfaces instead of becoming a NaN point."""

    @staticmethod
    def _patch(monkeypatch, scan, exc):
        module, name, run = SCANS[scan]

        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"{module}.{name}", failing)
        return run

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_programming_error_propagates(self, ctx, monkeypatch, scan):
        run = self._patch(monkeypatch, scan, TypeError("synthetic bug"))
        with pytest.raises(TypeError, match="synthetic bug"):
            run(ctx)

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_numerical_failure_recorded(self, ctx, monkeypatch, scan):
        run = self._patch(monkeypatch, scan, NumericalFailureError("norm lost"))
        res = run(ctx)
        assert [i for i, _ in res.failures] == [0, 1, 2]
        assert all(msg == "NumericalFailureError: norm lost" for _, msg in res.failures)
        assert np.all(np.isnan(res.fidelities))


class TestReferenceParity:
    """The batched scans against the per-point loops they replaced, at a
    coarser step to keep the per-point references quick."""

    LAMBDAS = [-0.5, -0.15, 0.0, 0.05, 0.3]
    LAMBDAS_PRIME = [0.0, 0.2, 0.55, 1.0]
    DT = 2e-3

    @pytest.mark.parametrize("case", ["linear", "mean_field"])
    def test_systematic_scan(self, ctx, case):
        spec, sched = ((ctx.spec_tilt, ctx.sched_tilt) if case == "linear"
                       else (ctx.spec_interacting, ctx.sched_compensated))
        got = scan_systematic(spec, sched, self.LAMBDAS, OdeSettings(step=self.DT)).fidelities
        want = reference.scan_systematic(spec, sched, self.LAMBDAS, step=self.DT)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("case", ["linear", "mean_field"])
    def test_noise_scan(self, ctx, case):
        spec, sched = ((ctx.spec_tilt, ctx.sched_tilt) if case == "linear"
                       else (ctx.spec_interacting, ctx.sched_compensated))
        got = scan_noise(spec, sched, self.LAMBDAS_PRIME, dt=self.DT).fidelities
        want = reference.scan_noise(spec, sched, self.LAMBDAS_PRIME, dt=self.DT)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("case", ["linear", "mean_field"])
    @pytest.mark.parametrize("edge", ["one_point", "odd_steps"])
    def test_scans_at_batch_edges(self, ctx, case, edge):
        spec, sched = ((ctx.spec_tilt, ctx.sched_tilt) if case == "linear"
                       else (ctx.spec_interacting, ctx.sched_compensated))
        lambdas, lambdas_prime, dt = (([0.05], [0.55], self.DT) if edge == "one_point"
                                      else (self.LAMBDAS, self.LAMBDAS_PRIME,
                                            spec.t_f / 2501))
        got = scan_systematic(spec, sched, lambdas, OdeSettings(step=dt)).fidelities
        want = reference.scan_systematic(spec, sched, lambdas, step=dt)
        assert np.max(np.abs(got - want)) <= 1e-12
        got = scan_noise(spec, sched, lambdas_prime, dt=dt).fidelities
        want = reference.scan_noise(spec, sched, lambdas_prime, dt=dt)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_bloch_records(self, ctx):
        times, states = bloch_propagate(ctx.spec_interacting, ctx.sched_compensated,
                                        0.4, record_stride=7)
        want_t, want = reference.bloch_propagate(ctx.spec_interacting, ctx.sched_compensated,
                                           0.4, record_stride=7)
        assert np.max(np.abs(times - want_t)) <= 1e-12
        assert np.max(np.abs(states - want)) <= 1e-12

    @pytest.mark.parametrize("case", ["linear", "mean_field"])
    def test_stochastic_oracle(self, ctx, case):
        spec, sched = ((ctx.spec_tilt, ctx.sched_tilt) if case == "linear"
                       else (ctx.spec_interacting, ctx.sched_compensated))
        got = stochastic_oracle(spec, sched, 0.6, trajectories=100, seed=4, dt=self.DT)
        want = reference.stochastic_oracle(spec, sched, 0.6, trajectories=100, seed=4,
                                           dt=self.DT)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestNoiseScan:
    def test_diverging_point_recorded(self, ctx):
        res = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 1e200, 0.1])
        assert [i for i, _ in res.failures] == [1]
        assert res.failures[0][1].startswith("NumericalFailureError: non-finite")
        assert np.isnan(res.fidelities[1])
        assert np.all(np.isfinite(res.fidelities[[0, 2]]))

    def test_grown_bloch_vector_recorded(self, ctx):
        # one step over the whole schedule is legal but leaves |r| > 1
        res = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.5], dt=ctx.spec_tilt.t_f)
        assert [i for i, _ in res.failures] == [0, 1]
        assert all(msg.startswith("NumericalFailureError: Bloch vector grew to length")
                   for _, msg in res.failures)
        assert np.all(np.isnan(res.fidelities))

    def test_diverging_single_run_raises(self, ctx):
        with pytest.raises(NumericalFailureError):
            bloch_propagate(ctx.spec_tilt, ctx.sched_tilt, 1e200)

    def test_zero_noise_matches_unitary(self, ctx):
        res = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0])
        assert abs(res.fidelities[0] - ctx.twolevel_tilt.final_fidelity) <= 1e-6

    def test_monotone_degradation(self, ctx):
        res = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.3, 0.6, 1.0])
        assert np.all(np.diff(res.fidelities) <= 1e-9)

    def test_purity_never_grows(self, ctx):
        _, states = bloch_propagate(ctx.spec_tilt, ctx.sched_tilt, 0.7)
        purity = np.sum(states**2, axis=1)
        assert np.max(np.diff(purity)) <= 1e-9
        assert np.all(purity <= 1.0 + 1e-9)

    def test_csv_export(self, ctx, tmp_path):
        res = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.5])
        path = res.to_csv(tmp_path / "scan.csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "lambda_prime,fidelity"
        assert len(lines) == 3


class TestStackedScans:
    """Mean-field scans step one stacked state for every point; each column
    must behave as its own run."""

    DT = 2e-3

    def test_bloch_records_match_scalar_runs(self, ctx):
        spec, sched = ctx.spec_interacting, ctx.sched_compensated
        strengths = np.array([0.0, 0.4, 1.0])
        times, states = bloch_propagate(spec, sched, strengths, dt=self.DT, record_stride=7)
        assert states.shape == (len(times), 3, len(strengths))
        for col, lam in enumerate(strengths):
            want_t, want = reference.bloch_propagate(spec, sched, lam, dt=self.DT,
                                                     record_stride=7)
            assert np.array_equal(times, want_t)
            assert np.max(np.abs(states[:, :, col] - want)) <= 1e-12

    def test_overflowing_systematic_point_stays_apart(self, ctx):
        res = scan_systematic(ctx.spec_interacting, ctx.sched_compensated,
                              [-0.1, 1e300, 0.1], OdeSettings(step=self.DT))
        assert [i for i, _ in res.failures] == [1]
        assert np.all(np.isfinite(res.fidelities[[0, 2]]))

    def test_diverging_noise_point_stays_apart(self, ctx):
        res = scan_noise(ctx.spec_interacting, ctx.sched_compensated,
                         [0.0, 1e200, 0.1], dt=self.DT)
        assert [i for i, _ in res.failures] == [1]
        assert np.all(np.isfinite(res.fidelities[[0, 2]]))


class TestInvalidStep:
    """A step that is not finite and positive is a domain error at every
    entry point, never a silent result."""

    STEPS = [-1e-3, 0.0, float("nan"), float("inf")]

    @pytest.mark.parametrize("dt", STEPS)
    def test_scan_systematic_settings(self, dt):
        with pytest.raises(DomainError):
            OdeSettings(step=dt)

    @pytest.mark.parametrize("dt", STEPS)
    def test_scan_noise(self, ctx, dt):
        with pytest.raises(DomainError):
            scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.0, 0.5], dt=dt)

    @pytest.mark.parametrize("dt", STEPS)
    def test_bloch_propagate(self, ctx, dt):
        with pytest.raises(DomainError):
            bloch_propagate(ctx.spec_tilt, ctx.sched_tilt, 0.5, dt=dt)

    @pytest.mark.parametrize("dt", STEPS)
    def test_stochastic_oracle(self, ctx, dt):
        with pytest.raises(DomainError):
            stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5, trajectories=100, dt=dt)


class TestStochasticOracle:
    def test_zero_noise_is_deterministic(self, ctx):
        f, se = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.0,
                                  trajectories=100, seed=1)
        assert se <= 1e-12
        assert abs(f - ctx.twolevel_tilt.final_fidelity) <= 1e-6

    def test_matches_master_equation(self, ctx):
        f_master = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.5]).fidelities[0]
        f, se = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5,
                                  trajectories=1000, seed=0)
        assert abs(f - f_master) <= 0.01
        assert abs(f - f_master) <= 2.0 * se + 1e-12

    def test_interacting_agreement(self, ctx):
        f_master = scan_noise(ctx.spec_interacting, ctx.sched_compensated,
                              [0.5]).fidelities[0]
        f, _ = stochastic_oracle(ctx.spec_interacting, ctx.sched_compensated,
                                 0.5, trajectories=1000, seed=0)
        assert abs(f - f_master) <= 0.01

    def test_seed_reproducibility(self, ctx):
        a = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.4,
                              trajectories=200, seed=9)
        b = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.4,
                              trajectories=200, seed=9)
        assert a == b

    def test_stderr_shrinks_with_ensemble_size(self, ctx):
        _, se1 = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5,
                                   trajectories=1000, seed=3)
        _, se2 = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5,
                                   trajectories=2000, seed=3)
        assert se2 == pytest.approx(se1 / np.sqrt(2.0), rel=0.2)

    def test_minimum_ensemble(self, ctx):
        with pytest.raises(DomainError):
            stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5, trajectories=50)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.0, 1.0))
def test_undriven_rhs_closed_form(lam):
    """With no drive: population frozen, transverse precession plus damping."""
    import warnings

    from socmorse.morse import MorseSpec, matrix_elements
    from socmorse.pulse_design import TransferSpec

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = TransferSpec(morse=MorseSpec(8.0), scheme="so_direction")
    me = matrix_elements(0, 1, 1.6, spec.morse)
    gap = 3.0
    sched = constant_schedule(spec, me.M_coupling, 0.0, gap)
    u, v, w = 0.5, 0.2, 0.7
    ds = bloch_rhs([u, v, w], 4.0, spec, sched, lam)
    z = spec.energy_n - spec.energy_l + gap
    damp = 0.5 * lam**2 * gap**2
    assert ds[2] == 0.0
    assert ds[0] == pytest.approx(-damp * u + z * v, rel=1e-12, abs=1e-12)
    assert ds[1] == pytest.approx(-z * u - damp * v, rel=1e-12, abs=1e-12)
