"""Small builders shared by the test modules."""

import numpy as np

from socmorse.pulse_design import PulseSchedule, _path


def constant_schedule(spec, coupling, amp, gap, n=64):
    """Flat two-channel schedule, handy for degenerate-control tests."""
    times = np.linspace(0.0, spec.t_f, n)
    return PulseSchedule(
        times=times,
        channel_a=np.full(n, amp),
        channel_b=np.full(n, gap),
        spec=spec,
        coupling=coupling,
        fn_a=lambda t: np.full_like(np.asarray(t, dtype=float), amp),
        fn_b=lambda t: np.full_like(np.asarray(t, dtype=float), gap),
    )


def time_reversed(schedule):
    """The schedule run backwards in time (channels mirrored about t_f/2)."""
    tf = schedule.t_f
    fn_a, fn_b = schedule.fn_a, schedule.fn_b
    return PulseSchedule(
        times=schedule.times.copy(),
        channel_a=schedule.channel_a[::-1].copy(),
        channel_b=schedule.channel_b[::-1].copy(),
        spec=schedule.spec,
        coupling=schedule.coupling,
        fn_a=lambda t: fn_a(tf - np.asarray(t)),
        fn_b=lambda t: fn_b(tf - np.asarray(t)),
    )


def smooth_step_coefficients(t_f):
    """Polynomial coefficients (a0, a1, a2, a3) of the cubic polar-angle path."""
    return (0.0, 0.0, 3.0 * np.pi / t_f**2, -2.0 * np.pi / t_f**3)


def path_angles(t, t_f, c):
    """Polar angle theta and mismatch phi - phi_a of the designed path at t.

    The mismatch is the constraint branch atan2(sign(c) theta', |c| sin theta).
    """
    sin_t, cos_t, dth, _, _ = _path(t, t_f, c)
    return np.arctan2(sin_t, cos_t), np.arctan2(np.sign(c) * dth, abs(c) * sin_t)
