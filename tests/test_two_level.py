import math

import numpy as np
import pytest

import reduced_reference as reference
from socmorse.dynamics_two_level import (
    _BLOCK,
    Trajectory,
    half_step_nodes,
    propagate,
    propagate_nonlinear,
    rk4,
    rk4_linear,
    step_amplitudes,
)
from socmorse.errors import DomainError, NumericalFailureError
from socmorse.morse import matrix_elements
from socmorse.numerics import OdeSettings
from helpers import constant_schedule, path_angles, time_reversed
from reduced_reference import assemble_H, ode_propagate




class TestAssembleH:
    def test_start_gap(self, ctx):
        h = assemble_H(ctx.spec_raman, ctx.me, ctx.sched_raman, 0.0)
        assert h.Z == pytest.approx(-0.15, abs=1e-12)

    def test_zero_coupling_channel(self, ctx):
        sched = constant_schedule(ctx.spec_raman, ctx.me.G, 0.0, 3.0)
        h = assemble_H(ctx.spec_raman, ctx.me, sched, 1.0)
        assert h.X == 0.0 and h.Y == 0.0

    def test_hermitian_traceless_everywhere(self, ctx):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.0, ctx.spec_raman.t_f, size=100):
            m = assemble_H(ctx.spec_raman, ctx.me, ctx.sched_raman, float(t)).matrix()
            assert np.allclose(m, m.conj().T)
            assert abs(np.trace(m)) <= 1e-14

    def test_out_of_range(self, ctx):
        with pytest.raises(DomainError):
            assemble_H(ctx.spec_raman, ctx.me, ctx.sched_raman, -1.0)


class TestStepGrid:
    def test_step_count_limit_raises_before_allocating(self):
        # 1e10 steps would need hundreds of GiB of node table
        with pytest.raises(DomainError, match="step"):
            half_step_nodes(1e7, 1e-3)

    def test_step_count_at_limit_accepted(self):
        nsteps, h, nodes = half_step_nodes(1.0, 1e-6)
        assert nsteps == 10**6 and len(nodes) == 2 * 10**6 + 1


class TestPropagate:
    def test_designed_transfer(self, ctx):
        assert ctx.twolevel_raman.final_fidelity >= 1.0 - 1e-6

    def test_no_coupling_freezes_population(self, ctx):
        sched = constant_schedule(ctx.spec_raman, ctx.me.G, 0.0, 2.7)
        traj = propagate(ctx.spec_raman, ctx.me, sched)
        assert np.all(np.abs(np.abs(traj.states[:, 0]) - 1.0) <= 1e-12)

    def test_reversed_schedule_returns(self, ctx):
        rev = time_reversed(ctx.sched_raman)
        back = propagate(ctx.spec_raman, ctx.me, rev, initial=(0.0, 1.0))
        assert abs(back.states[-1, 0]) ** 2 >= 1.0 - 1e-9

    def test_norm_conserved(self, ctx):
        drift = np.max(np.abs(ctx.twolevel_raman.norm() - 1.0))
        assert drift <= 1e-9

    def test_halved_step_converged(self, ctx):
        fine = propagate(ctx.spec_raman, ctx.me, ctx.sched_raman,
                         OdeSettings(step=5e-4))
        assert abs(fine.final_fidelity - ctx.twolevel_raman.final_fidelity) <= 1e-8

    def test_tracks_designed_angles(self, ctx):
        # the state follows the tracked eigenstate's polar/azimuthal angles
        spec = ctx.spec_raman
        traj = ctx.twolevel_raman
        sel = slice(200, len(traj.times) - 200, 400)
        c1 = traj.states[sel, 0]
        c2 = traj.states[sel, 1]
        u = 2.0 * np.real(np.conj(c1) * c2)
        v = -2.0 * np.imag(np.conj(c1) * c2)
        w = np.abs(c1) ** 2 - np.abs(c2) ** 2
        for t, ui, vi, wi in zip(traj.times[sel], u, v, w):
            theta_state = math.acos(max(-1.0, min(1.0, wi)))
            phi_state = math.atan2(vi, ui)
            theta, mismatch = path_angles(t, spec.t_f, spec.c)
            dtheta = abs(theta_state - theta)
            phi_a = ctx.sched_raman.phi - mismatch
            dphi = (phi_state - phi_a + math.pi) % (2 * math.pi) - math.pi
            assert dtheta <= 1e-4
            assert abs(dphi) <= 1e-4

    def test_diagonal_shift_is_gauge(self, ctx):
        # adding a constant to both diagonals changes no observable.  The
        # reference Hamiltonian is tabulated once on the half-step grid, which
        # holds every time the reference RK4 evaluates: one substep per step.
        shift = 5.0
        sched = ctx.sched_raman
        spec, me = ctx.spec_raman, ctx.me
        halves = 2 * int(round(spec.t_f / 1e-3))
        a, b = reference._channel_nodes(sched, spec.t_f, halves // 2)
        xy = a * reference._offdiag_factor(spec, me.G)
        h = reference.TwoLevelHamiltonian(Z=spec.energy_n - spec.energy_l + b,
                                          X=xy.real, Y=xy.imag).matrix()
        h = h.transpose(2, 0, 1) + shift * np.eye(2)

        def rhs(t, y):
            return -1j * (h[int(round(t * halves / spec.t_f))] @ y)

        _, states = ode_propagate(rhs, [1.0 + 0j, 0.0 + 0j], 0.0, spec.t_f,
                                  reference.OdeSettings(step=1e-3))
        ref = ctx.twolevel_raman.states[-1]
        got = states[-1]
        assert abs(np.abs(got[0]) ** 2 - np.abs(ref[0]) ** 2) <= 1e-10
        assert abs(np.abs(got[1]) ** 2 - np.abs(ref[1]) ** 2) <= 1e-10
        # and the relative phase (the only physical phase) agrees
        rel_ref = np.angle(ref[1] / ref[0]) if abs(ref[0]) > 1e-12 else None
        if rel_ref is not None:
            assert np.angle(got[1] / got[0]) == pytest.approx(rel_ref, abs=1e-6)


class TestReferenceParity:
    """Single runs against the scalar RK4 loop the shared core replaced."""

    @pytest.mark.parametrize("case", ["raman", "tilt", "compensated", "uncompensated"])
    def test_states_match(self, ctx, case):
        traj = getattr(ctx, f"twolevel_{case}")
        nonlinear = case in ("compensated", "uncompensated")
        sched = {"raman": ctx.sched_raman, "tilt": ctx.sched_tilt,
                 "compensated": ctx.sched_compensated,
                 "uncompensated": ctx.sched_tilt}[case]
        times, states = reference._rk4_two_level(traj.spec, sched, 1e-3, (1.0 + 0j, 0j),
                                           nonlinear)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.states - states)) <= 1e-12

    def test_reversed_run_from_target(self, ctx):
        rev = time_reversed(ctx.sched_raman)
        traj = propagate(ctx.spec_raman, ctx.me, rev, OdeSettings(step=2e-3),
                         initial=(0.0, 1.0))
        _, states = reference._rk4_two_level(ctx.spec_raman, rev, 2e-3, (0.0, 1.0), False)
        assert np.max(np.abs(traj.states - states)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflow_reported_with_time(self, ctx):
        sched = ctx.sched_tilt.with_channel_b_scaled(1e300)
        with pytest.raises(NumericalFailureError) as err:
            propagate(ctx.spec_tilt, ctx.me, sched)
        with pytest.raises(NumericalFailureError) as want:
            reference._rk4_two_level(ctx.spec_tilt, sched, 1e-3, (1.0 + 0j, 0j), False)
        assert str(err.value) == str(want.value)
        assert err.value.time == want.value.time


class TestRk4Linear:
    """The loop-free linear RK4 against the step loop, on random
    time-dependent generators over t in [0, 1]: A = -iH with H Hermitian
    (2x2 complex) and rotations plus damping (3x3 real), so the state
    stays of order one."""

    COLUMNS = 3

    @staticmethod
    def _generator(n, nsteps, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, 2 * nsteps + 1)[:, None]

        def entry(dtype):
            amp = rng.uniform(-2.0, 2.0, size=(1, TestRk4Linear.COLUMNS))
            if dtype is complex:
                amp = amp + 1j * rng.uniform(-2.0, 2.0, size=amp.shape)
            return amp * np.cos(rng.uniform(1.0, 9.0) * t + rng.uniform(0.0, 6.0))

        if n == 2:
            d, w = entry(float), entry(complex)
            # one entry shared by every column, as a 1-D table
            d[:, 1:] = d[:, :1]
            return ((-1j * d[:, 0], -1j * w), (-1j * np.conj(w), 1j * d[:, 0]))
        x, y, z, damp = entry(float), entry(float), entry(float), np.abs(entry(float))
        return ((-damp, z, -y), (-z, -damp, x), (y, -x, np.zeros_like(x)))

    @staticmethod
    def _both(matrix, nsteps, stride=None):
        n = len(matrix)
        start = tuple(np.full(TestRk4Linear.COLUMNS, (r + 1.0) / n) for r in range(n))
        tables = [[np.asarray(e) for e in row] for row in matrix]

        def deriv(j, *y):
            return tuple(sum(tables[r][c][j] * y[c] for c in range(n)) for r in range(n))

        h = 1.0 / nsteps
        want_steps, want = rk4(deriv, start, nsteps, h, stride)
        got_steps, got = rk4_linear(matrix, start, nsteps, h, stride)
        assert got_steps == want_steps
        assert np.array_equal(np.array(got[0]), np.array(want[0]))
        return np.array(got), np.array(want)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("nsteps", [1, 2, 7, 2 * _BLOCK + 37])
    def test_matches_step_loop(self, n, nsteps):
        got, want = self._both(self._generator(n, nsteps, seed=nsteps + n), nsteps)
        got, want = got[-1], want[-1]
        assert np.max(np.abs(want)) >= 0.1
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("nsteps", [1, 2, 7, 2 * _BLOCK + 37])
    @pytest.mark.parametrize("stride", [1, 7, "nsteps"])  # None: test_matches_step_loop
    def test_records_match_step_loop(self, n, nsteps, stride):
        stride = nsteps if stride == "nsteps" else stride
        got, want = self._both(self._generator(n, nsteps, seed=nsteps + n), nsteps, stride)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflowing_column_stays_apart(self, n):
        nsteps = _BLOCK + 5
        matrix = self._generator(n, nsteps, seed=11)
        # the generator of column 1 overflows from the middle of step 300 on
        matrix[0][1][2 * 300 + 1:, 1] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = self._both(matrix, nsteps, stride=1)
        bad = ~np.all(np.isfinite(got[:, :, 1]), axis=1)
        assert np.array_equal(bad, ~np.all(np.isfinite(want[:, :, 1]), axis=1))
        assert int(np.argmax(bad)) == 301 and bad[-1]
        keep = [0, 2]
        assert np.all(np.isfinite(got[:, :, keep]))
        assert np.max(np.abs(got[:, :, keep] - want[:, :, keep])) <= 1e-13


class TestStackedAmplitudes:
    """The stacked (2, L) step of ``step_amplitudes`` against one scalar run
    per column, with mean-field constants and records."""

    def test_records_match_scalar_runs(self, ctx):
        spec, sched = ctx.spec_interacting, ctx.sched_compensated
        nsteps, h, nodes = half_step_nodes(spec.t_f, spec.t_f / 1000)
        _, od = sched.reduced_terms(nodes)
        scale = 1.0 + np.array([-0.3, 0.0, 0.2])
        z = (spec.energy_n - spec.energy_l) + np.asarray(sched.b_at(nodes))[:, None] * scale
        steps, states = step_amplitudes(z, od, nsteps, h, spec.g_effective, stride=7)
        got = np.array(states)
        assert got.shape == (len(steps), 2, len(scale))
        assert steps[-1] == nsteps and nsteps % 7
        for col in range(len(scale)):
            want_steps, want = step_amplitudes(z[:, col], od, nsteps, h, spec.g_effective,
                                               stride=7)
            assert want_steps == steps
            assert np.max(np.abs(got[:, :, col] - np.array(want))) <= 1e-12
        assert np.abs(got[-1, 1, 1]) ** 2 >= 1.0 - 1e-6


class TestNonlinear:
    def test_compensated_design_transfers(self, ctx):
        assert ctx.twolevel_compensated.final_fidelity >= 1.0 - 1e-6

    def test_uncompensated_is_strictly_worse(self, ctx):
        assert (ctx.twolevel_uncompensated.final_fidelity
                < ctx.twolevel_compensated.final_fidelity)

    def test_zero_interactions_match_linear(self, ctx):
        lin = propagate(ctx.spec_tilt, ctx.me, ctx.sched_tilt)
        non = propagate_nonlinear(ctx.spec_tilt, ctx.me, ctx.sched_tilt)
        assert np.max(np.abs(lin.states - non.states)) <= 1e-12

    def test_norm_conserved(self, ctx):
        drift = np.max(np.abs(ctx.twolevel_compensated.norm() - 1.0))
        assert drift <= 1e-9


class TestObservables:
    def test_polarization_endpoints(self, ctx):
        pz = ctx.twolevel_raman.observables()["Pz"]
        assert pz[0] == pytest.approx(1.0, abs=1e-12)
        assert pz[-1] == pytest.approx(-1.0, abs=1e-6)

    def test_transverse_bound(self, ctx):
        traj = ctx.twolevel_raman
        obs = traj.observables()
        px, py = obs["Px"], obs["Py"]
        c1 = np.abs(traj.states[:, 0])
        c2 = np.abs(traj.states[:, 1])
        bound = 2.0 * c1 * c2 * abs(ctx.me.S) + 1e-12
        assert np.all(np.abs(px) <= bound)
        assert np.all(np.abs(py) <= bound)

    def test_transverse_vanishes_at_zero_strength(self, ctx):
        me0 = matrix_elements(0, 1, 0.0, ctx.morse)
        times = np.array([0.0, 1.0])
        states = np.array([[1 / math.sqrt(2), 1j / math.sqrt(2)],
                           [0.6, 0.8]], dtype=complex)
        traj = Trajectory(times=times, states=states, spec=ctx.spec_raman, me=me0)
        obs = traj.observables()
        px, py = obs["Px"], obs["Py"]
        assert np.max(np.abs(px)) <= 1e-10
        assert np.max(np.abs(py)) <= 1e-10

    def test_transverse_overlap_magnitude_reported(self, ctx):
        # the overlap entering Px, Py at the working strength is not small
        assert abs(ctx.me.S) == pytest.approx(abs(ctx.me.G), rel=1e-14)
        assert 0.4 < abs(ctx.me.S) < 0.6

    def test_coordinate_endpoints(self, ctx):
        xev = ctx.twolevel_raman.observables()["x_expect"]
        assert xev[0] == pytest.approx(ctx.me.x_diag_n, abs=1e-6)
        assert xev[-1] == pytest.approx(ctx.me.x_diag_l, abs=1e-6)
        assert xev[-1] > xev[0]


class TestTrajectoryExport:
    def test_csv_columns(self, ctx, tmp_path):
        path = ctx.twolevel_raman.to_csv(tmp_path / "traj.csv", stride=500)
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "re_c1", "im_c1", "re_c2", "im_c2", "Px", "Py",
                          "Pz", "x_expect", "x_expect_over_lc", "fidelity"]
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[7] == pytest.approx(1.0)  # Pz starts at one
        last = [float(v) for v in lines[-1].split(",")]
        assert last[10] == pytest.approx(1.0, abs=1e-6)
