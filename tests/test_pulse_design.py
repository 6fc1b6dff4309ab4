import json
import math
import warnings

import numpy as np
import pytest

from helpers import path_angles, smooth_step_coefficients, time_reversed
from socmorse.dynamics_two_level import propagate
from socmorse.errors import DesignInfeasibleError, DomainError
from socmorse.morse import MorseSpec, matrix_elements
from socmorse.pulse_design import (
    AdiabaticityWarning,
    PulseSchedule,
    SmallAngleWarning,
    TransferSpec,
    _path,
    design_scheme1,
    design_scheme2,
    design_scheme2_interacting,
    effective_g,
    invariant_residual,
    raw_from_effective,
)

A8 = MorseSpec(8.0)
T_F = 10.0
C = 0.1
SPLIT = 3.0  # level splitting for the canonical pair


def quiet_spec(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        return TransferSpec(morse=A8, **kw)


@pytest.fixture(scope="module")
def me():
    return matrix_elements(0, 1, 1.6, A8)


@pytest.fixture(scope="module")
def spec1():
    return quiet_spec()


@pytest.fixture(scope="module")
def sched1(spec1, me):
    return design_scheme1(spec1, me)


@pytest.fixture(scope="module")
def spec2():
    return quiet_spec(scheme="so_direction")


@pytest.fixture(scope="module")
def sched2(spec2, me):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallAngleWarning)
        return design_scheme2(spec2, me)


class TestSpecValidation:
    def test_target_must_be_adjacent(self):
        with pytest.raises(DomainError):
            quiet_spec(n=0, l=2)

    def test_gap_parameter_nonzero(self):
        with pytest.raises(DomainError):
            quiet_spec(c=0.0)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            quiet_spec(scheme="other")

    def test_target_must_be_bound(self):
        with pytest.raises(DomainError):
            quiet_spec(n=3, l=4)

    @pytest.mark.parametrize("t_f", [np.inf, 1e200, 1e308])
    def test_t_f_with_infinite_square_rejected(self, t_f):
        with pytest.raises(DomainError, match="t_f"):
            quiet_spec(t_f=t_f)

    @pytest.mark.parametrize("scheme", ["raman", "so_direction"])
    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_non_finite_interaction_rejected(self, scheme, g):
        with pytest.raises(DomainError, match="interaction"):
            quiet_spec(scheme=scheme, g21=g)

    @pytest.mark.parametrize("name", ["g11", "g22", "g12", "g21"])
    @pytest.mark.parametrize("g", [0.3, -1e-300])
    def test_mean_field_needs_tilted_field(self, name, g):
        with pytest.raises(DomainError, match="tilted-field"):
            quiet_spec(scheme="raman", **{name: g})
        for scheme in ("so_direction", "so_direction_interacting"):
            assert quiet_spec(scheme=scheme, **{name: g}).interacting

    def test_short_operation_warns(self):
        with pytest.warns(AdiabaticityWarning):
            TransferSpec(morse=A8, t_f=10.0, c=0.1)

    def test_warning_points_at_caller(self):
        with pytest.warns(AdiabaticityWarning) as rec:
            TransferSpec(morse=A8, t_f=10.0, c=0.1)
        assert {w.filename for w in rec if w.category is AdiabaticityWarning} == {__file__}

    def test_long_operation_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AdiabaticityWarning)
            TransferSpec(morse=A8, t_f=100.0, c=0.1)

    def test_boundary_gap(self, spec1):
        assert spec1.delta_e == pytest.approx(0.15)
        assert quiet_spec(c=1.5).delta_e == pytest.approx(2.25)

    def test_round_trip(self, spec1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            again = TransferSpec.from_dict(spec1.to_dict())
        assert again == spec1


def theta(t):
    return path_angles(t, T_F, C)[0]


def dtheta(t):
    return _path(t, T_F, C)[2]


def dphi_a(c, t):
    return _path(t, T_F, c)[4]


class TestThetaAnsatz:
    def test_cubic_coefficients(self):
        a0, a1, a2, a3 = smooth_step_coefficients(T_F)
        assert (a0, a1) == (0.0, 0.0)
        assert a2 == pytest.approx(3 * math.pi / T_F**2, rel=1e-14)
        assert a3 == pytest.approx(-2 * math.pi / T_F**3, rel=1e-14)
        # the sampled cubic matches its coefficients
        t = np.linspace(0, T_F, 7)
        assert np.allclose(theta(t), a2 * t**2 + a3 * t**3, atol=1e-12)

    def test_boundary_conditions(self):
        assert theta(0.0) == 0.0
        assert theta(T_F) == pytest.approx(math.pi, abs=1e-14)
        assert dtheta(0.0) == 0.0
        assert dtheta(T_F) == pytest.approx(0.0, abs=1e-14)

    def test_midpoint_values(self):
        assert theta(T_F / 2) == pytest.approx(math.pi / 2, rel=1e-14)
        assert dtheta(T_F / 2) == pytest.approx(3 * math.pi / (2 * T_F), rel=1e-14)

    def test_monotone(self):
        vals = theta(np.linspace(0, T_F, 4001))
        assert np.all(np.diff(vals) >= 0)

    def test_gap_radius(self):
        t = np.linspace(0, T_F, 101)
        sin_t, _, dth, r, _ = _path(t, T_F, C)
        assert np.array_equal(r, np.hypot(dth, C * sin_t))
        assert np.all(r[1:-1] > 0.0)


class TestConstraintAngles:
    def test_endpoint_rates(self):
        assert dphi_a(C, 0.0) == pytest.approx(C / 2, rel=1e-12)
        assert dphi_a(C, T_F) == pytest.approx(-C / 2, rel=1e-12)
        # continuity approaching the endpoints
        assert dphi_a(C, 1e-9) == pytest.approx(C / 2, rel=1e-6)
        assert dphi_a(C, T_F - 1e-9) == pytest.approx(-C / 2, rel=1e-6)

    def test_midpoint_mismatch_angle(self):
        want = math.atan(3 * math.pi / (2 * T_F * C))
        assert path_angles(T_F / 2, T_F, C)[1] == pytest.approx(want, rel=1e-12)

    def test_endpoint_mismatch_is_quarter_turn(self):
        for t in (1e-13, T_F - 1e-13):
            assert path_angles(t, T_F, C)[1] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_negative_gap_parameter_flips_branch(self):
        assert path_angles(1e-13, T_F, -0.1)[1] == pytest.approx(-math.pi / 2, rel=1e-12)
        assert dphi_a(-0.1, 0.0) == pytest.approx(-0.05, rel=1e-12)


class TestScheme1:
    def test_detuning_endpoints(self, sched1):
        assert sched1.b_at(0.0) == pytest.approx(SPLIT - 1.5 * C, abs=1e-12)
        assert sched1.b_at(T_F) == pytest.approx(SPLIT + 1.5 * C, abs=1e-12)

    def test_amplitude_endpoints_vanish(self, sched1):
        assert sched1.channel_a[0] == 0.0
        assert sched1.channel_a[-1] == 0.0

    def test_all_samples_finite(self, sched1):
        assert np.all(np.isfinite(sched1.channel_a))
        assert np.all(np.isfinite(sched1.channel_b))

    def test_detuning_independent_of_alpha(self, spec1, sched1):
        for alpha in (0.8, 2.0):
            spec = quiet_spec(alpha=alpha)
            sched = design_scheme1(spec, matrix_elements(0, 1, alpha, A8))
            assert np.max(np.abs(sched.channel_b - sched1.channel_b)) <= 1e-10

    def test_amplitude_coupling_product_invariant(self, spec1, sched1, me):
        # only the amplitude rescales with the coupling magnitude
        spec = quiet_spec(alpha=0.8)
        me08 = matrix_elements(0, 1, 0.8, A8)
        sched08 = design_scheme1(spec, me08)
        lhs = sched08.channel_a * abs(me08.G)
        rhs = sched1.channel_a * abs(me.G)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_infeasible_at_zero_strength(self):
        spec = quiet_spec(alpha=0.0)
        me0 = matrix_elements(0, 1, 0.0, A8)
        with pytest.raises(DesignInfeasibleError):
            design_scheme1(spec, me0)


class TestScheme2:
    def test_gap_channel_endpoints(self, sched2):
        assert sched2.b_at(0.0) == pytest.approx(SPLIT - 1.5 * C, abs=1e-12)
        assert sched2.b_at(T_F) == pytest.approx(SPLIT + 1.5 * C, abs=1e-12)

    def test_tilt_endpoints_vanish(self, sched2):
        assert sched2.channel_a[0] == 0.0
        assert sched2.channel_a[-1] == 0.0

    def test_single_lobe_with_central_extremum(self, sched2):
        tilt = sched2.channel_a
        assert np.all(tilt <= 0.0)  # one lobe, no sign change for c > 0
        peak = sched2.times[int(np.argmax(np.abs(tilt)))]
        assert abs(peak - T_F / 2) < T_F / 20

    def test_peak_tilt_warns(self, spec2, me):
        with pytest.warns(SmallAngleWarning):
            design_scheme2(spec2, me)

    @pytest.mark.parametrize("design", [design_scheme2, design_scheme2_interacting])
    def test_peak_tilt_warning_points_at_caller(self, spec2, me, design):
        with pytest.warns(SmallAngleWarning) as rec:
            design(spec2, me)
        assert {w.filename for w in rec if w.category is SmallAngleWarning} == {__file__}


G_SET = dict(g11=0.3, g22=0.2, g12=0.115, g21=0.115)


@pytest.fixture(scope="module")
def ispec():
    return quiet_spec(scheme="so_direction_interacting", **G_SET)


@pytest.fixture(scope="module")
def isched(ispec, me):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallAngleWarning)
        return design_scheme2_interacting(ispec, me)


class TestScheme2Interacting:
    def test_zero_interactions_reduce_exactly(self, me, sched2):
        zspec = quiet_spec(scheme="so_direction_interacting")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallAngleWarning)
            zsched = design_scheme2_interacting(zspec, me)
        assert np.array_equal(zsched.channel_a, sched2.channel_a)
        assert np.array_equal(zsched.channel_b, sched2.channel_b)

    def test_tilt_channel_unchanged(self, isched, sched2):
        assert np.max(np.abs(isched.channel_a - sched2.channel_a)) <= 1e-12

    def test_start_shift_is_population_weighted(self, isched, sched2):
        # at t=0 all population sits in the first component
        shift = isched.b_at(0.0) - sched2.b_at(0.0)
        assert shift == pytest.approx(-G_SET["g11"] + G_SET["g21"], abs=1e-12)
        assert shift == pytest.approx(-0.185, abs=1e-12)


class TestEffectiveG:
    def test_equal_raw_gives_overlap_ratio(self):
        g11, g22, g12, g21 = effective_g((1.0, 1.0, 1.0, 1.0), A8, 0, 1)
        assert g11 / g22 == pytest.approx(1.5, abs=0.02)

    def test_canonical_normalization(self):
        raw = 0.3 / effective_g((1.0, 1.0, 1.0, 1.0), A8, 0, 1)[0]
        g11, g22, g12, g21 = effective_g((raw,) * 4, A8, 0, 1)
        assert g11 == pytest.approx(0.3, rel=1e-12)
        assert g22 == pytest.approx(0.2, abs=0.005)
        assert g12 == pytest.approx(0.115, abs=0.005)
        assert g12 == g21

    def test_zero_maps_to_zero(self):
        assert effective_g((0.0, 0.0, 0.0, 0.0), A8, 0, 1) == (0.0, 0.0, 0.0, 0.0)

    def test_raw_round_trip(self):
        spec = quiet_spec(scheme="so_direction_interacting",
                          g11=0.3, g22=0.2, g12=0.115, g21=0.115)
        raw = raw_from_effective(spec)
        back = effective_g(raw, A8, 0, 1)
        assert back == pytest.approx((0.3, 0.2, 0.115, 0.115), rel=1e-12)


class TestInvariantResidual:
    def test_designed_schedule_tracks(self, sched1):
        assert invariant_residual(sched1, T_F / 2) <= 1e-8

    def test_hundred_interior_times(self, sched1):
        rng = np.random.default_rng(11)
        for t in rng.uniform(1e-6, T_F - 1e-6, size=100):
            assert invariant_residual(sched1, float(t)) <= 1e-8

    def test_corrupted_schedule_detected(self, sched1):
        corrupted = PulseSchedule(
            times=sched1.times,
            channel_a=sched1.channel_a,
            channel_b=sched1.channel_b + 0.5,
            spec=sched1.spec,
            coupling=sched1.coupling,
            fn_a=sched1.fn_a,
            fn_b=lambda t: sched1.fn_b(t) + 0.5,
        )
        assert invariant_residual(corrupted, T_F / 2) > 1e-3

    def test_interacting_design_tracks(self, me):
        ispec = quiet_spec(scheme="so_direction_interacting",
                           g11=0.3, g22=0.2, g12=0.115, g21=0.115)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallAngleWarning)
            isched = design_scheme2_interacting(ispec, me)
        assert invariant_residual(isched, T_F / 3) <= 1e-8

    def test_outside_interval_rejected(self, sched1):
        with pytest.raises(DomainError):
            invariant_residual(sched1, 0.0)


class TestScheduleObject:
    def test_csv_round_trip(self, sched1, tmp_path):
        csv_path, sidecar = sched1.to_csv(tmp_path / "schedule.csv")
        again = PulseSchedule.from_csv(csv_path)
        assert np.allclose(again.times, sched1.times, rtol=1e-11)
        assert np.allclose(again.channel_b, sched1.channel_b, rtol=1e-11, atol=1e-13)
        assert again.label_a == "Omega"
        assert again.spec == sched1.spec
        assert again.coupling == pytest.approx(sched1.coupling)
        meta = json.loads(open(sidecar).read())
        assert (meta["label_a"], meta["label_b"]) == ("Omega", "Delta")
        assert again.phi == meta["phi"] == sched1.phi

    def test_labels_and_phase_follow_scheme_and_coupling(self, sched1, sched2, me):
        assert (sched1.label_a, sched1.label_b) == ("Omega", "Delta")
        assert (sched2.label_a, sched2.label_b) == ("theta1", "beta")
        assert sched1.phi == math.atan2(me.G.imag, me.G.real)
        assert sched2.phi == math.atan2(me.M_coupling.imag, me.M_coupling.real)

    def test_spline_fallback_matches_analytic(self, sched1, tmp_path):
        csv_path, _ = sched1.to_csv(tmp_path / "s.csv")
        again = PulseSchedule.from_csv(csv_path)
        t = np.linspace(0.3, T_F - 0.3, 23)
        assert np.allclose(again.b_at(t), sched1.b_at(t), atol=1e-8)
        assert np.allclose(again.a_at(t), sched1.a_at(t), atol=1e-8)

    def test_channel_scaling(self, sched1):
        scaled = sched1.with_channel_b_scaled(1.25)
        assert scaled.b_at(4.0) == pytest.approx(1.25 * sched1.b_at(4.0), rel=1e-14)
        assert np.allclose(scaled.channel_b, 1.25 * sched1.channel_b)
        assert scaled.a_at(4.0) == sched1.a_at(4.0)

    def test_time_reversal(self, sched1):
        rev = time_reversed(sched1)
        for t in (0.0, 2.5, 7.25, T_F):
            assert rev.a_at(t) == pytest.approx(sched1.a_at(T_F - t), abs=1e-14)
            assert rev.b_at(t) == pytest.approx(sched1.b_at(T_F - t), abs=1e-14)

    def test_loaded_schedule_end_to_end(self, spec1, me, sched1, tmp_path):
        csv_path, _ = sched1.to_csv(tmp_path / "s.csv")
        loaded = PulseSchedule.from_csv(csv_path)
        designed = propagate(spec1, me, sched1).final_fidelity
        assert propagate(loaded.spec, me, loaded).final_fidelity == pytest.approx(
            designed, abs=1e-6)
        t = np.linspace(0.0, T_F, 37)
        scaled = loaded.with_channel_b_scaled(1.02)
        assert np.allclose(scaled.b_at(t), 1.02 * loaded.b_at(t), rtol=0.0, atol=1e-12)
        assert isinstance(scaled.b_at(4.0), float) and isinstance(loaded.a_at(4.0), float)
        rev = time_reversed(loaded)
        assert np.allclose(rev.a_at(t), loaded.a_at(T_F - t), rtol=0.0, atol=1e-14)
        assert np.allclose(rev.b_at(t), loaded.b_at(T_F - t), rtol=0.0, atol=1e-14)

    def test_rejects_nonfinite_samples(self, spec1, me):
        with pytest.raises(DomainError):
            PulseSchedule(
                times=np.array([0.0, 1.0]),
                channel_a=np.array([0.0, np.inf]),
                channel_b=np.array([0.0, 0.0]),
                spec=spec1, coupling=me.G,
            )

    def test_rejects_length_mismatch(self, spec1, me):
        with pytest.raises(DomainError):
            PulseSchedule(
                times=np.array([0.0, 1.0, 2.0]),
                channel_a=np.zeros(2),
                channel_b=np.zeros(3),
                spec=spec1, coupling=me.G,
            )
