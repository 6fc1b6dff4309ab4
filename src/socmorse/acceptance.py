"""Acceptance suite: every release-gating check, one callable per criterion.

The checks pin the canonical configuration (trap depth 8, ground state to
first excited state, spin-orbit strength 1.6, operation time 10) and the
published tolerances.  Heavy artifacts (grid runs) are computed once per
:class:`AcceptanceContext` and shared.

One check is known infeasible and marked as such: the full mean-field grid
simulation of the tilted-field scheme reaches fidelity about 0.983, short
of 0.99, at the canonical parameters.  Only about 0.2 percent of the
population ends outside the two states.  The deficit matches a
second-order shift of the detuning by kappa sin^2(theta1), kappa = 0.723,
from the spin-flip coupling of both states to every other level (peak
tilt about 0.33 rad here); the design does not include that shift yet.
The result is reported honestly instead of being tuned away; see the
repository notes for the measurement history.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics_grid import SpatialGrid, evolve, init_basis_state
from .dynamics_two_level import propagate, propagate_nonlinear
from .morse import (
    MorseSpec,
    eigenfunction,
    finite_difference_levels,
    matrix_elements,
    overlap_Q,
    position_moment,
)
from .numerics import OdeSettings, QuadratureSpec, integrate
from .pulse_design import (
    TransferSpec,
    design_scheme1,
    design_scheme2,
    design_scheme2_interacting,
    invariant_residual,
)
from .robustness import bloch_propagate, scan_noise, scan_systematic, stochastic_oracle

DEPTH = 8.0
ALPHA = 1.6
T_F = 10.0
C_SMALL = 0.1
C_LARGE = 1.5
G_EFFECTIVE = {"g11": 0.3, "g22": 0.2, "g12": 0.115, "g21": 0.115}
ORACLE_SEED = 0


@dataclass
class CriterionResult:
    label: str
    passed: bool
    expected_fail: bool = False
    skipped: bool = False
    details: list = field(default_factory=list)


class _Check:
    """Collects named assertions into one pass/fail verdict."""

    def __init__(self):
        self.lines = []
        self.ok = True

    def expect(self, condition, text):
        self.lines.append(("pass: " if condition else "FAIL: ") + text)
        self.ok = self.ok and bool(condition)

    def note(self, text):
        self.lines.append("note: " + text)

    def result(self, label, expected_fail=False):
        return CriterionResult(
            label=label,
            passed=self.ok,
            expected_fail=(not self.ok) and expected_fail,
            details=self.lines,
        )


_CRITERIA = []  # (label, check, slow) of every criterion, in run order


def _criterion(label, slow=False, expected_fail=False):
    """Register a criterion under ``label`` in run order.  The decorated
    function fills a :class:`_Check` from the context; the registered
    callable takes the context and returns the :class:`CriterionResult`.
    ``slow`` criteria are skipped by a fast run."""
    def register(fill):
        def check(ctx):
            chk = _Check()
            fill(ctx, chk)
            return chk.result(label, expected_fail)
        _CRITERIA.append((label, check, slow))
        return check
    return register


class AcceptanceContext:
    """Lazily computed shared artifacts for the acceptance criteria."""

    def __init__(self):
        self.settings = OdeSettings(step=1e-3)

    @staticmethod
    def _quiet(fn, *args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(*args, **kwargs)

    @cached_property
    def morse(self):
        return MorseSpec(DEPTH)

    @cached_property
    def me(self):
        return matrix_elements(0, 1, ALPHA, self.morse)

    @cached_property
    def spec_raman(self):
        return self._quiet(TransferSpec, morse=self.morse, alpha=ALPHA, t_f=T_F, c=C_SMALL)

    @cached_property
    def spec_raman_wide(self):
        return self._quiet(TransferSpec, morse=self.morse, alpha=ALPHA, t_f=T_F, c=C_LARGE)

    @cached_property
    def spec_tilt(self):
        return self._quiet(TransferSpec, morse=self.morse, alpha=ALPHA, t_f=T_F,
                           c=C_SMALL, scheme="so_direction")

    @cached_property
    def spec_interacting(self):
        return self._quiet(TransferSpec, morse=self.morse, alpha=ALPHA, t_f=T_F,
                           c=C_SMALL, scheme="so_direction_interacting", **G_EFFECTIVE)

    @cached_property
    def sched_raman(self):
        return self._quiet(design_scheme1, self.spec_raman, self.me)

    @cached_property
    def sched_raman_wide(self):
        return self._quiet(design_scheme1, self.spec_raman_wide, self.me)

    @cached_property
    def sched_tilt(self):
        return self._quiet(design_scheme2, self.spec_tilt, self.me)

    @cached_property
    def sched_compensated(self):
        return self._quiet(design_scheme2_interacting, self.spec_interacting, self.me)

    @cached_property
    def grid(self):
        return SpatialGrid()

    def _grid_run(self, spec, schedule, dt=1e-3):
        fld = init_basis_state(self.grid, self.morse, spec.n, "up", spec.alpha)
        return evolve(fld, spec, schedule, dt=dt)

    @cached_property
    def grid_run_small_gap(self):
        return self._grid_run(self.spec_raman, self.sched_raman)

    @cached_property
    def grid_run_wide_gap(self):
        return self._grid_run(self.spec_raman_wide, self.sched_raman_wide)

    @cached_property
    def grid_run_small_gap_half_dt(self):
        return self._grid_run(self.spec_raman, self.sched_raman, dt=5e-4)

    @cached_property
    def grid_run_wide_gap_half_dt(self):
        return self._grid_run(self.spec_raman_wide, self.sched_raman_wide, dt=5e-4)

    @cached_property
    def gpe_run_compensated(self):
        return self._grid_run(self.spec_interacting, self.sched_compensated)

    @cached_property
    def gpe_run_uncompensated(self):
        return self._grid_run(self.spec_interacting, self.sched_tilt)

    @cached_property
    def gpe_run_compensated_half_dt(self):
        return self._grid_run(self.spec_interacting, self.sched_compensated, dt=5e-4)

    @cached_property
    def twolevel_raman(self):
        return propagate(self.spec_raman, self.me, self.sched_raman, self.settings)

    @cached_property
    def twolevel_tilt(self):
        return propagate(self.spec_tilt, self.me, self.sched_tilt, self.settings)

    @cached_property
    def twolevel_compensated(self):
        return propagate_nonlinear(self.spec_interacting, self.me,
                                   self.sched_compensated, self.settings)

    @cached_property
    def twolevel_uncompensated(self):
        return propagate_nonlinear(self.spec_interacting, self.me,
                                   self.sched_tilt, self.settings)


# ---------------------------------------------------------------------------
# criteria


@_criterion("1. bound-state structure")
def criterion_1_bound_structure(ctx: AcceptanceContext, chk: _Check):
    e0 = ctx.morse.bound_state(0).energy
    e1 = ctx.morse.bound_state(1).energy
    chk.expect(e0 == -6.125, f"closed-form E0 = {e0} equals -6.125")
    chk.expect(e1 == -3.125, f"closed-form E1 = {e1} equals -3.125")
    fd = finite_difference_levels(ctx.morse, 4)
    worst = max(abs(fd[n] - ctx.morse.bound_state(n).energy) for n in range(4))
    chk.expect(worst <= 1e-5, f"finite-difference spectrum agrees to {worst:.2e} <= 1e-5")
    worst_ortho = 0.0
    states = ctx.morse.bound_states()
    funcs = [eigenfunction(s, ctx.morse) for s in states]
    for i in range(len(states)):
        for j in range(i, len(states)):
            lo, hi = -5.0, max(30.0, 35.0 / (states[i].xi + states[j].xi))
            q = QuadratureSpec(lo, hi, tolerance=1e-10, max_subdivisions=400)
            val = integrate(lambda x: funcs[i](x) * funcs[j](x), q).real
            worst_ortho = max(worst_ortho, abs(val - (1.0 if i == j else 0.0)))
    chk.expect(worst_ortho <= 1e-7,
               f"orthonormality residual {worst_ortho:.2e} <= 1e-7")


@_criterion("2. interaction overlap constants")
def criterion_2_overlap_constants(ctx: AcceptanceContext, chk: _Check):
    q00 = overlap_Q(0, 0, ctx.morse)
    q11 = overlap_Q(1, 1, ctx.morse)
    q01 = overlap_Q(0, 1, ctx.morse)
    r1 = q00 / q11
    r2 = q01 / (q00 + q11)
    chk.expect(abs(r1 - 1.5) <= 0.02, f"Q(0,0)/Q(1,1) = {r1:.4f} within 1.5 +- 0.02")
    chk.expect(abs(r2 - 0.23) <= 0.01,
               f"Q(0,1)/[Q(0,0)+Q(1,1)] = {r2:.4f} within 0.23 +- 0.01")


@_criterion("3. design endpoint values")
def criterion_3_design_endpoints(ctx: AcceptanceContext, chk: _Check):
    split = ctx.spec_raman.level_splitting
    for spec, sched, c in ((ctx.spec_raman, ctx.sched_raman, C_SMALL),
                           (ctx.spec_raman_wide, ctx.sched_raman_wide, C_LARGE)):
        b0 = sched.b_at(0.0)
        b1 = sched.b_at(spec.t_f)
        chk.expect(abs(b0 - (split - 1.5 * c)) <= 1e-6,
                   f"c={c}: start detuning {b0:.8f} = split - 3c/2")
        chk.expect(abs(b1 - (split + 1.5 * c)) <= 1e-6,
                   f"c={c}: end detuning {b1:.8f} = split + 3c/2")
        chk.expect(abs(spec.delta_e - 1.5 * c) <= 1e-12,
                   f"c={c}: boundary gap {spec.delta_e} = 3|c|/2")


@_criterion("4. detuning independent of spin-orbit strength")
def criterion_4_alpha_invariance(ctx: AcceptanceContext, chk: _Check):
    reference = None
    worst = 0.0
    for alpha in (0.8, 1.2, 1.6, 2.0):
        spec = ctx._quiet(TransferSpec, morse=ctx.morse, alpha=alpha, t_f=T_F, c=C_SMALL)
        me = matrix_elements(0, 1, alpha, ctx.morse)
        sched = ctx._quiet(design_scheme1, spec, me)
        if reference is None:
            reference = sched.channel_b
        else:
            worst = max(worst, float(np.max(np.abs(sched.channel_b - reference))))
    chk.expect(worst <= 1e-10,
               f"detuning samples spread {worst:.2e} <= 1e-10 across alpha")


@_criterion("5. two-level transfer and invariant tracking")
def criterion_5_two_level_transfer(ctx: AcceptanceContext, chk: _Check):
    f1 = ctx.twolevel_raman.final_fidelity
    f2 = ctx.twolevel_tilt.final_fidelity
    chk.expect(f1 >= 1.0 - 1e-6, f"Raman-scheme two-level fidelity {f1:.9f} >= 1 - 1e-6")
    chk.expect(f2 >= 1.0 - 1e-6, f"tilt-scheme two-level fidelity {f2:.9f} >= 1 - 1e-6")
    rng = np.random.default_rng(20240901)
    for sched, name in ((ctx.sched_raman, "Raman"), (ctx.sched_tilt, "tilt")):
        times = rng.uniform(1e-6 * T_F, T_F * (1 - 1e-6), size=100)
        worst = max(invariant_residual(sched, float(t)) for t in times)
        chk.expect(worst <= 1e-8,
                   f"{name} invariant residual {worst:.2e} <= 1e-8 at 100 interior times")


@_criterion("6. full-grid validation of the Raman design", slow=True)
def criterion_6_grid_headline(ctx: AcceptanceContext, chk: _Check):
    f_small = ctx.grid_run_small_gap[1].final_fidelity
    f_wide = ctx.grid_run_wide_gap[1].final_fidelity
    chk.expect(abs(f_small - 0.9966) <= 0.003,
               f"grid fidelity c=0.1: {f_small:.5f} within 0.9966 +- 0.003")
    chk.expect(abs(f_wide - 0.979) <= 0.005,
               f"grid fidelity c=1.5: {f_wide:.5f} within 0.979 +- 0.005")
    chk.expect(f_wide < f_small, "wider gap transfers with lower fidelity")


@_criterion("7. grid observables", slow=True)
def criterion_7_grid_observables(ctx: AcceptanceContext, chk: _Check):
    rep = ctx.grid_run_small_gap[1]
    chk.expect(abs(rep.Pz[0] - 1.0) <= 1e-9, f"initial polarization {rep.Pz[0]:.6f} = 1")
    chk.expect(abs(rep.Pz[-1] + 1.0) <= 0.01,
               f"final polarization {rep.Pz[-1]:.5f} = -1 within 0.01")
    x00 = position_moment(0, ctx.morse)
    x11 = position_moment(1, ctx.morse)
    chk.expect(abs(rep.x_expect[0] - x00) <= 0.02,
               f"initial <x> {rep.x_expect[0]:.5f} matches closed-form <0|x|0> {x00:.5f}")
    chk.expect(abs(rep.x_expect[-1] - x11) <= 0.02,
               f"final <x> {rep.x_expect[-1]:.5f} matches closed-form <1|x|1> {x11:.5f}")
    chk.expect(rep.x_expect[-1] - rep.x_expect[0] > 0,
               f"net displacement {rep.x_expect[-1] - rep.x_expect[0]:.4f} positive")


@_criterion("8. mean-field compensation (two-level)")
def criterion_8_compensation(ctx: AcceptanceContext, chk: _Check):
    f_comp = ctx.twolevel_compensated.final_fidelity
    f_uncomp = ctx.twolevel_uncompensated.final_fidelity
    chk.expect(f_comp >= 1.0 - 1e-6,
               f"compensated mean-field fidelity {f_comp:.9f} >= 1 - 1e-6")
    chk.expect(f_comp > f_uncomp,
               f"compensated {f_comp:.6f} beats uncompensated {f_uncomp:.6f}")
    tilt_diff = float(np.max(np.abs(ctx.sched_compensated.channel_a
                                    - ctx.sched_tilt.channel_a)))
    chk.expect(tilt_diff <= 1e-12,
               f"tilt channel unchanged by interactions (diff {tilt_diff:.2e})")


@_criterion("8g. mean-field compensation (grid)", slow=True, expected_fail=True)
def criterion_8g_gpe_grid(ctx: AcceptanceContext, chk: _Check):
    f_comp = ctx.gpe_run_compensated[1].final_fidelity
    chk.expect(f_comp >= 0.99, f"mean-field grid fidelity {f_comp:.5f} >= 0.99")
    f_uncomp = ctx.gpe_run_uncompensated[1].final_fidelity
    chk.note(f"uncompensated mean-field grid fidelity {f_uncomp:.5f}")
    chk.note("known infeasible at the canonical parameters: the design omits "
             "the second-order shift kappa sin^2(theta1) (kappa = 0.723) from "
             "the other levels; only about 0.2% of the population leaves the "
             f"two states (peak tilt {ctx.sched_tilt.max_abs_a:.3f} rad)")


@_criterion("9. robustness scans")
def criterion_9_robustness(ctx: AcceptanceContext, chk: _Check):
    lambdas = np.round(np.arange(-0.5, 0.5001, 0.05), 10)
    for spec, sched, name in (
        (ctx.spec_tilt, ctx.sched_tilt, "noninteracting"),
        (ctx.spec_interacting, ctx.sched_compensated, "interacting"),
    ):
        res = scan_systematic(spec, sched, lambdas, ctx.settings)
        i0 = int(np.argmin(np.abs(lambdas)))
        chk.expect(len(res.failures) == 0, f"{name} systematic scan completed")
        chk.expect(np.all(res.fidelities <= res.fidelities[i0] + 1e-9),
                   f"{name}: fidelity is maximal at zero systematic error "
                   f"(F(0) = {res.fidelities[i0]:.6f})")
    lambdas_p = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    for spec, sched, name in (
        (ctx.spec_tilt, ctx.sched_tilt, "noninteracting"),
        (ctx.spec_interacting, ctx.sched_compensated, "interacting"),
    ):
        res = scan_noise(spec, sched, lambdas_p)
        drops = np.diff(res.fidelities)
        chk.expect(np.all(drops <= 1e-9),
                   f"{name}: fidelity nonincreasing in noise strength "
                   f"(F: {res.fidelities[0]:.4f} -> {res.fidelities[-1]:.4f})")
    f_master = scan_noise(ctx.spec_tilt, ctx.sched_tilt, [0.5]).fidelities[0]
    f_stoch, se = stochastic_oracle(ctx.spec_tilt, ctx.sched_tilt, 0.5,
                                    trajectories=1000, seed=ORACLE_SEED)
    diff = abs(f_master - f_stoch)
    chk.expect(diff <= 0.01,
               f"master equation {f_master:.5f} vs stochastic oracle "
               f"{f_stoch:.5f} (+- {se:.5f}): |diff| = {diff:.5f} <= 0.01")


@_criterion("10. numerical hygiene", slow=True)
def criterion_10_numerical_hygiene(ctx: AcceptanceContext, chk: _Check):
    drift_linear = float(np.max(np.abs(ctx.grid_run_small_gap[1].norm - 1.0)))
    chk.expect(drift_linear <= 1e-8, f"linear grid norm drift {drift_linear:.2e} <= 1e-8")
    drift_gpe = float(np.max(np.abs(ctx.gpe_run_compensated[1].norm - 1.0)))
    chk.expect(drift_gpe <= 1e-6, f"mean-field grid norm drift {drift_gpe:.2e} <= 1e-6")
    pairs = (
        ("c=0.1", ctx.grid_run_small_gap, ctx.grid_run_small_gap_half_dt),
        ("c=1.5", ctx.grid_run_wide_gap, ctx.grid_run_wide_gap_half_dt),
        ("mean-field", ctx.gpe_run_compensated, ctx.gpe_run_compensated_half_dt),
    )
    for name, full, half in pairs:
        delta = abs(full[1].final_fidelity - half[1].final_fidelity)
        chk.expect(delta <= 1e-5,
                   f"{name}: halving dt changes fidelity by {delta:.2e} <= 1e-5")
    _, states = bloch_propagate(ctx.spec_tilt, ctx.sched_tilt, 0.5)
    purity = np.sum(states**2, axis=1)
    worst_rise = float(np.max(np.diff(purity)))
    chk.expect(worst_rise <= 1e-9,
               f"purity nonincreasing under noise (max rise {worst_rise:.2e})")


def run_all(ctx: AcceptanceContext = None, fast: bool = False):
    """Run the acceptance criteria and return their results in order."""
    if ctx is None:
        ctx = AcceptanceContext()
    return [CriterionResult(label=label, passed=False, skipped=True,
                            details=["skipped in fast mode"])
            if fast and slow else check(ctx)
            for label, check, slow in _CRITERIA]
