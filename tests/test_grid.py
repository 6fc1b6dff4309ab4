import warnings
from dataclasses import replace

import numpy as np
import pytest

from socmorse.dynamics_grid import (
    SpatialGrid,
    _observables as grid_observables,
    SpinorField,
    density_profile,
    evolve,
    init_basis_state,
    target_state,
)
from socmorse.errors import DomainError
from socmorse.morse import position_moment
from socmorse.pulse_design import design_scheme2
from grid_reference import SERIES, _observables, reference_evolve
from helpers import constant_schedule


def observables(fld, ctx):
    """The reference observables of a field against the canonical target."""
    return _observables(fld.up, fld.down, target_state(ctx.grid, ctx.spec_raman), ctx.grid)


def stacked(fld):
    return np.array([fld.up, fld.down])


class TestGridGeometry:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            SpatialGrid(points=1000)

    def test_minimum_points(self):
        with pytest.raises(DomainError):
            SpatialGrid(points=256)

    @pytest.mark.parametrize("bounds", [(-np.inf, 25.0), (-5.0, np.inf),
                                        (-1e308, 1e308)])
    def test_non_finite_bounds_or_spacing_rejected(self, bounds):
        with pytest.raises(DomainError):
            SpatialGrid(*bounds)

    def test_spacing(self):
        g = SpatialGrid(-5.0, 25.0, 2048)
        assert g.dx == pytest.approx(30.0 / 2048)
        assert g.x[0] == -5.0
        assert len(g.k) == 2048


class TestInitialStates:
    def test_normalized(self, ctx):
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        norm = grid_observables(stacked(fld), stacked(fld), ctx.grid)[0]
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_spin_components_disjoint(self, ctx):
        up0 = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        dn1 = init_basis_state(ctx.grid, ctx.morse, 1, "down", 1.6)
        assert grid_observables(stacked(up0), stacked(dn1), ctx.grid)[-1] == 0.0

    def test_grid_moment_matches_quadrature(self, ctx):
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        obs = observables(fld, ctx)
        assert obs["x_expect"] == pytest.approx(position_moment(0, ctx.morse), abs=1e-6)

    def test_single_component_polarization(self, ctx):
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        obs = observables(fld, ctx)
        assert obs["Pz"] == pytest.approx(1.0, abs=1e-12)
        assert obs["Px"] == 0.0 and obs["Py"] == 0.0

    def test_narrow_grid_rejected(self, ctx):
        narrow = SpatialGrid(-5.0, 3.0, 512)
        with pytest.raises(DomainError):
            init_basis_state(narrow, ctx.morse, 1, "down", 1.6)

    def test_non_finite_state_rejected(self, ctx):
        # finite bounds and spacing, but the profile overflows to nan
        with pytest.raises(DomainError):
            init_basis_state(SpatialGrid(-5.0, 1e308), ctx.morse, 0, "up", 1.6)

    def test_bad_spin_label(self, ctx):
        with pytest.raises(DomainError):
            init_basis_state(ctx.grid, ctx.morse, 0, "sideways", 1.6)


class TestObservableFormulas:
    """The reduced-model observable formulas must agree exactly with the
    grid integrals on states inside the reduced subspace."""

    @pytest.fixture()
    def superposition(self, ctx):
        c1 = 0.8 * np.exp(0.3j)
        c2 = 0.6 * np.exp(-0.9j)
        up0 = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        dn1 = init_basis_state(ctx.grid, ctx.morse, 1, "down", 1.6)
        fld = SpinorField(ctx.grid, c1 * up0.up, c2 * dn1.down)
        return c1, c2, fld

    def test_polarization_matches_reduced_formula(self, ctx, superposition):
        c1, c2, fld = superposition
        obs = observables(fld, ctx)
        cross = c1 * np.conj(c2) * ctx.me.S
        assert obs["Px"] == pytest.approx(2.0 * cross.real, abs=1e-9)
        assert obs["Py"] == pytest.approx(-2.0 * cross.imag, abs=1e-9)
        assert obs["Pz"] == pytest.approx(abs(c1) ** 2 - abs(c2) ** 2, abs=1e-12)

    def test_coordinate_matches_reduced_formula(self, ctx, superposition):
        # the position operator is spin diagonal: no cross term survives
        c1, c2, fld = superposition
        obs = observables(fld, ctx)
        want = abs(c1) ** 2 * ctx.me.x_diag_n + abs(c2) ** 2 * ctx.me.x_diag_l
        assert obs["x_expect"] == pytest.approx(want, abs=1e-8)

    def test_fidelity_is_target_population(self, ctx, superposition):
        c1, c2, fld = superposition
        obs = observables(fld, ctx)
        assert obs["fidelity"] == pytest.approx(abs(c2) ** 2, abs=1e-12)


class TestEvolution:
    def test_uncoupled_state_is_stationary(self, ctx):
        sched = constant_schedule(ctx.spec_raman, ctx.me.G, 0.0, 0.0)
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        final, rep = evolve(fld, ctx.spec_raman, sched, dt=1e-3)
        start = stacked(init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6))
        fidelity = grid_observables(stacked(final), start, ctx.grid)[-1]
        assert np.sqrt(fidelity) == pytest.approx(1.0, abs=1e-6)  # |overlap|

    def test_designed_transfer_headline(self, ctx):
        assert ctx.grid_run_small_gap[1].final_fidelity == pytest.approx(0.9966, abs=0.003)

    def test_norm_drift_linear(self, ctx):
        assert np.max(np.abs(ctx.grid_run_small_gap[1].norm - 1.0)) <= 1e-8

    def test_norm_drift_mean_field(self, ctx):
        assert np.max(np.abs(ctx.gpe_run_compensated[1].norm - 1.0)) <= 1e-6

    def test_reduced_model_agreement(self, ctx):
        gap = abs(ctx.grid_run_small_gap[1].final_fidelity
                  - ctx.twolevel_raman.final_fidelity)
        assert gap <= 0.005

    def test_time_step_convergence(self, ctx):
        delta = abs(ctx.grid_run_small_gap[1].final_fidelity
                    - ctx.grid_run_small_gap_half_dt[1].final_fidelity)
        assert delta <= 1e-5

    def test_resolution_convergence(self, ctx):
        fine_grid = SpatialGrid(-5.0, 25.0, 4096)
        fld = init_basis_state(fine_grid, ctx.morse, 0, "up", 1.6)
        _, rep = evolve(fld, ctx.spec_raman, ctx.sched_raman, dt=1e-3)
        delta = abs(rep.final_fidelity - ctx.grid_run_small_gap[1].final_fidelity)
        assert delta <= 1e-4

    def test_window_shift_invariance(self, ctx):
        dx = ctx.grid.dx
        shifted = SpatialGrid(-5.0 + dx, 25.0 + dx, ctx.grid.points)
        fld = init_basis_state(shifted, ctx.morse, 0, "up", 1.6)
        _, rep = evolve(fld, ctx.spec_raman, ctx.sched_raman, dt=1e-3)
        delta = abs(rep.final_fidelity - ctx.grid_run_small_gap[1].final_fidelity)
        assert delta <= 1e-6

    def test_scheme_mismatch_rejected(self, ctx):
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        with pytest.raises(DomainError):
            evolve(fld, ctx.spec_tilt, ctx.sched_raman)

    @pytest.mark.parametrize("kwargs", [
        {"dt": -1e-3},
        {"dt": 0.0},
        {"t_f": -1.0},
        {"record_stride": 0},
        {"dt": float("inf")},
        {"dt": float("nan")},
    ], ids=["negative_dt", "zero_dt", "negative_t_f", "zero_record_stride",
            "infinite_dt", "nan_dt"])
    def test_bad_stepping_arguments_rejected(self, ctx, kwargs):
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        with pytest.raises(DomainError):
            evolve(fld, ctx.spec_raman, ctx.sched_raman, **kwargs)

    def test_polarization_endpoints(self, ctx):
        rep = ctx.grid_run_small_gap[1]
        assert rep.Pz[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.Pz[-1] == pytest.approx(-1.0, abs=0.01)

    def test_tilt_peak_reported(self, ctx):
        rep = ctx.gpe_run_compensated[1]
        assert rep.max_abs_tilt == pytest.approx(ctx.sched_tilt.max_abs_a, abs=1e-3)
        assert ctx.grid_run_small_gap[1].max_abs_tilt is None


class TestDensities:
    def test_density_integrates_to_norm(self, ctx):
        final, rep = ctx.grid_run_small_gap
        dens_up, dens_dn = density_profile(final)
        total = float(np.sum(dens_up + dens_dn) * ctx.grid.dx)
        assert total == pytest.approx(rep.norm[-1], rel=1e-12)

    @staticmethod
    def _l1_to_target(ctx, final):
        dens_up, dens_dn = density_profile(final)
        tgt_up, tgt_dn = density_profile(target_state(ctx.grid, ctx.spec_raman))
        return float(np.sum(np.abs(dens_up + dens_dn - tgt_up - tgt_dn)) * ctx.grid.dx)

    def test_small_gap_final_density_close_to_target(self, ctx):
        assert self._l1_to_target(ctx, ctx.grid_run_small_gap[0]) <= 0.05

    def test_wide_gap_final_density_further(self, ctx):
        d_small = self._l1_to_target(ctx, ctx.grid_run_small_gap[0])
        d_wide = self._l1_to_target(ctx, ctx.grid_run_wide_gap[0])
        assert d_wide > d_small


class TestMeanFieldGrid:
    """Full-grid behaviour of the compensated interacting design.

    The two claims below are the designed behaviour of the reduced model,
    but on the grid the spin-flip coupling to every other level shifts the
    detuning by kappa sin^2(theta1), kappa = 0.723 at the canonical
    parameters, a second-order shift the design does not include yet; it
    dominates the comparison, while only about 0.2% of the population
    leaves the two states (see the acceptance notes).  They are kept as
    strict expected failures so any change in this behaviour is flagged.
    """

    @pytest.mark.xfail(strict=True,
                       reason="the uncorrected second-order shift kappa "
                              "sin^2(theta1) at peak tilt ~0.33 rad caps the "
                              "grid fidelity near 0.983")
    def test_compensated_reaches_target_fidelity(self, ctx):
        assert ctx.gpe_run_compensated[1].final_fidelity >= 0.99

    @pytest.mark.xfail(strict=True,
                       reason="the uncompensated detuning error partially cancels "
                              "the uncorrected second-order shift on the grid")
    def test_compensated_beats_uncompensated(self, ctx):
        assert (ctx.gpe_run_compensated[1].final_fidelity
                > ctx.gpe_run_uncompensated[1].final_fidelity)

    def test_mean_field_runs_complete(self, ctx):
        assert 0.97 <= ctx.gpe_run_compensated[1].final_fidelity < 1.0
        assert 0.97 <= ctx.gpe_run_uncompensated[1].final_fidelity < 1.0

    def test_mean_field_polarization_endpoints(self, ctx):
        # the same uncorrected second-order shift as above holds the final
        # polarization about 0.03 short of a full flip (see the repository notes)
        rep = ctx.gpe_run_compensated[1]
        assert rep.Pz[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.Pz[-1] == pytest.approx(-1.0, abs=0.05)


class TestCrossModelConsistency:
    def test_grid_and_reduced_coordinate_endpoints(self, ctx):
        rep = ctx.grid_run_small_gap[1]
        xev = ctx.twolevel_raman.observables()["x_expect"]
        assert rep.x_expect[0] == pytest.approx(xev[0], abs=1e-6)
        assert rep.x_expect[-1] == pytest.approx(xev[-1], abs=0.02)

    def test_grid_and_reduced_polarization_endpoints(self, ctx):
        rep = ctx.grid_run_small_gap[1]
        pz = ctx.twolevel_raman.observables()["Pz"]
        assert rep.Pz[0] == pytest.approx(pz[0], abs=1e-9)
        assert rep.Pz[-1] == pytest.approx(pz[-1], abs=0.01)


PARITY_T_F = 1.0


def _wide_tilt(ctx, spec):
    """``spec`` over the tilted design whose whole run fits the parity window:
    at t_f = PARITY_T_F it sweeps theta1 up to about 3.2 rad, where the
    canonical design reaches only 0.115 rad in that window."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched = design_scheme2(replace(ctx.spec_tilt, t_f=PARITY_T_F), ctx.me)
        return replace(spec, t_f=PARITY_T_F), sched


PARITY_CASES = {
    "raman": lambda ctx: (ctx.spec_raman, ctx.sched_raman),
    "so_direction": lambda ctx: (ctx.spec_tilt, ctx.sched_tilt),
    "so_direction_interacting": lambda ctx: (ctx.spec_interacting, ctx.sched_compensated),
    "so_direction_wide_tilt": lambda ctx: _wide_tilt(ctx, ctx.spec_tilt),
    "so_direction_interacting_wide_tilt": lambda ctx: _wide_tilt(ctx, ctx.spec_interacting),
}


@pytest.fixture(scope="module")
def reference_runs(ctx):
    """Reference-stepper series per parity case, recorded at every step."""
    cache = {}

    def get(case):
        if case not in cache:
            spec, sched = PARITY_CASES[case](ctx)
            fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
            cache[case] = reference_evolve(fld, spec, sched, dt=1e-3, t_f=PARITY_T_F,
                                           record_stride=1)
        return cache[case]

    return get


class TestReferenceParity:
    """The factorised, merged stepping loop against the plain per-half-step
    loop in ``grid_reference``, at strides that record every step, do not
    divide the step count, and record only the ends."""

    @pytest.mark.parametrize("stride", [1, 7, 10**9])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_series_match_reference(self, ctx, reference_runs, case, stride):
        spec, sched = PARITY_CASES[case](ctx)
        fld = init_basis_state(ctx.grid, ctx.morse, 0, "up", 1.6)
        _, rep = evolve(fld, spec, sched, dt=1e-3, t_f=PARITY_T_F, record_stride=stride)
        times, ref = reference_runs(case)
        nsteps = len(times) - 1
        keep = [s for s in range(nsteps + 1) if s % stride == 0 or s == nsteps]
        np.testing.assert_array_equal(rep.times, times[keep])
        for name in SERIES:
            np.testing.assert_allclose(getattr(rep, name), ref[name][keep],
                                       rtol=0.0, atol=1e-10, err_msg=name)
