"""Acceptance checks on the workloads' results.

Each check takes results, not the code that made them, and returns a list
of problems (empty when the results pass).  The bounds are the paper's
published values or properties of the method; none is a copy of a
measured output.  ``selfcheck.py`` feeds every check a wrong result and
confirms that it is rejected.
"""

from __future__ import annotations

import numpy as np

NORM_DRIFT_LINEAR = 1e-8
NORM_DRIFT_MEAN_FIELD = 1e-6
RAMAN_GRID_WINDOWS = {0.1: (0.9966, 0.003), 1.5: (0.979, 0.005)}
TILTED_GRID_FLOOR = 0.97
FINAL_PZ_SLACK = 0.05
MEAN_FIELD_GRID_TARGET = 0.99
TRANSFER_FLOOR = 1.0 - 1e-6
RESIDUAL_BOUND = 1e-8
ENDPOINT_TOL = 1e-6
ALPHA_INVARIANCE_TOL = 1e-10
CSV_SAMPLE_RTOL = 1e-11
CSV_SPLINE_RTOL = 1e-6
REFERENCE_FIDELITY_TOL = 1e-6
FD_G_RTOL = 1e-7
ORACLE_Z = 4.0


def _fail(cond, text):
    return [] if cond else [text]


def grid_norm_drift(norm_series, mean_field):
    bound = NORM_DRIFT_MEAN_FIELD if mean_field else NORM_DRIFT_LINEAR
    drift = float(np.max(np.abs(np.asarray(norm_series) - 1.0)))
    return _fail(drift <= bound, f"grid norm drift {drift:.3g} > {bound:g}")


def raman_grid_fidelity(c, fidelity):
    centre, half = RAMAN_GRID_WINDOWS[c]
    return _fail(abs(fidelity - centre) <= half,
                 f"Raman grid fidelity at c={c}: {fidelity:.6f} outside "
                 f"{centre} +- {half}")


def wider_gap_lower(f_small_gap, f_wide_gap):
    return _fail(f_wide_gap < f_small_gap,
                 f"c=1.5 fidelity {f_wide_gap:.6f} not below c=0.1 fidelity "
                 f"{f_small_gap:.6f}")


def tilted_grid_run(fidelity, pz_start, pz_end):
    return (_fail(TILTED_GRID_FLOOR <= fidelity < 1.0,
                  f"tilted-field grid fidelity {fidelity:.6f} outside [0.97, 1)")
            + _fail(abs(pz_start - 1.0) <= 1e-9, f"initial P_z {pz_start:.9f} != 1")
            + _fail(abs(pz_end + 1.0) <= FINAL_PZ_SLACK,
                    f"final P_z {pz_end:.5f} not within {FINAL_PZ_SLACK} of -1"))


def meets_mean_field_target(fidelity):
    """The paper's target for the compensated mean-field grid run."""
    return fidelity >= MEAN_FIELD_GRID_TARGET


def transfer_complete(fidelity, what):
    return _fail(fidelity >= TRANSFER_FLOOR,
                 f"{what}: fidelity {fidelity!r} below 1 - 1e-6")


def scan_peak_at_zero(lambdas, fidelities, what):
    lambdas = np.asarray(lambdas)
    fidelities = np.asarray(fidelities)
    i0 = int(np.argmin(np.abs(lambdas)))
    out = _fail(bool(np.all(np.isfinite(fidelities))), f"{what}: non-finite scan points")
    out += transfer_complete(float(fidelities[i0]), f"{what} at lambda=0")
    out += _fail(bool(np.all(fidelities <= fidelities[i0] + 1e-9)),
                 f"{what}: fidelity not maximal at lambda=0")
    return out


def noise_nonincreasing(fidelities, what):
    fidelities = np.asarray(fidelities)
    return (_fail(bool(np.all(np.isfinite(fidelities))), f"{what}: non-finite scan points")
            + _fail(bool(np.all(np.diff(fidelities) <= 1e-9)),
                    f"{what}: fidelity rises with noise strength"))


def master_vs_oracle(f_master, f_oracle, stderr):
    """The master equation agrees with the trajectory average within 4 standard
    errors of the ensemble (a fixed 0.01 would be a 1.3-sigma window at
    1000 trajectories, failing one seed in five)."""
    diff = abs(f_master - f_oracle)
    return _fail(diff <= ORACLE_Z * stderr,
                 f"master equation {f_master:.5f} vs oracle {f_oracle:.5f}: "
                 f"|diff| {diff:.5f} > {ORACLE_Z:g} x stderr {stderr:.5f}")


def matches_reference(value, reference, what, tol=REFERENCE_FIDELITY_TOL):
    return _fail(abs(value - reference) <= tol,
                 f"{what}: {value!r} differs from reference {reference!r} by more than {tol:g}")


def residual_small(residuals, what):
    worst = float(np.max(residuals))
    return _fail(worst <= RESIDUAL_BOUND,
                 f"{what}: invariant residual {worst:.3g} > {RESIDUAL_BOUND:g}")


def design_endpoints(b_start, b_end, split, c, what):
    return (_fail(abs(b_start - (split - 1.5 * c)) <= ENDPOINT_TOL,
                  f"{what}: start {b_start!r} != split - 3c/2 = {split - 1.5 * c!r}")
            + _fail(abs(b_end - (split + 1.5 * c)) <= ENDPOINT_TOL,
                    f"{what}: end {b_end!r} != split + 3c/2 = {split + 1.5 * c!r}"))


def detuning_alpha_invariant(detuning, detuning_other_alpha):
    spread = float(np.max(np.abs(np.asarray(detuning) - np.asarray(detuning_other_alpha))))
    return _fail(spread <= ALPHA_INVARIANCE_TOL,
                 f"Raman detuning changes with alpha by {spread:.3g}")


def csv_round_trip(times, fn_a, fn_b, loaded):
    """A reloaded schedule reproduces the analytic channels: its samples to
    the written 12 digits, its spline between samples to 1e-6 of the scale."""
    out = _fail(np.array_equal(np.shape(times), np.shape(loaded.times))
                and np.allclose(loaded.times, times, rtol=CSV_SAMPLE_RTOL, atol=0.0),
                "CSV round trip: sample times differ")
    if out:
        return out
    mids = 0.5 * (times[1:] + times[:-1])
    for label, fn, samples, spline in (("a", fn_a, loaded.channel_a, loaded.a_at),
                                       ("b", fn_b, loaded.channel_b, loaded.b_at)):
        exact = np.asarray(fn(times))
        scale = max(1.0, float(np.max(np.abs(exact))))
        sample_err = float(np.max(np.abs(samples - exact)))
        spline_err = float(np.max(np.abs(np.asarray(spline(mids)) - np.asarray(fn(mids)))))
        out += _fail(sample_err <= CSV_SAMPLE_RTOL * scale,
                     f"CSV round trip: channel {label} samples off by {sample_err:.3g}")
        out += _fail(spline_err <= CSV_SPLINE_RTOL * scale,
                     f"CSV round trip: channel {label} spline off by {spline_err:.3g}")
    return out


def table_round_trip(written, reloaded, what):
    """A written CSV table reads back as the values it was written from."""
    written = np.asarray(written, dtype=float)
    reloaded = np.asarray(reloaded, dtype=float)
    ok = written.shape == reloaded.shape and np.allclose(
        reloaded, written, rtol=CSV_SAMPLE_RTOL, atol=1e-300)
    return _fail(ok, f"{what}: reloaded CSV differs from the run's values")


def g_matches_fd(g_program, g_fd):
    rel = abs(abs(g_program) - g_fd) / g_fd
    return _fail(rel <= FD_G_RTOL,
                 f"|G| {abs(g_program)!r} vs finite differences {g_fd!r}: rel {rel:.3g}")


def overlaps_consistent(q_nn, q_ll, q_nl):
    """Density overlaps are positive and obey Cauchy-Schwarz, Q_nl^2 <= Q_nn Q_ll."""
    return _fail(min(q_nn, q_ll, q_nl) > 0.0 and q_nl * q_nl <= q_nn * q_ll,
                 f"overlaps Q_nn={q_nn!r} Q_ll={q_ll!r} Q_nl={q_nl!r} inconsistent")


def bit_identical(first, again, what):
    same = len(first) == len(again) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(first, again))
    return _fail(same, f"{what}: same seed gave different results")
