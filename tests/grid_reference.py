"""Independent reference stepper for the split-step grid engine.

This is the straightforward form of the Strang splitting that
``dynamics_grid.evolve`` performs: each spin component is transformed by its
own ``numpy.fft`` call, every position half-step is the full x-dependent 2x2
exponential, and mean-field densities are refreshed before every half-step.
It shares no stepping code with the library, so the parity tests can hold
the factorised, merged production loop to it record by record.
"""

import numpy as np

from socmorse.dynamics_grid import SpinorField, target_state
from socmorse.morse import potential
from socmorse.pulse_design import raw_from_effective

SERIES = ("norm", "x_expect", "Px", "Py", "Pz", "fidelity")


def _observables(up, dn, tgt, grid):
    dx = grid.dx
    dens_up = np.abs(up) ** 2
    dens_dn = np.abs(dn) ** 2
    cross = np.sum(np.conj(dn) * up) * dx
    overlap = np.sum(np.conj(tgt.up) * up + np.conj(tgt.down) * dn) * dx
    return {
        "norm": float(np.sum(dens_up + dens_dn) * dx),
        "x_expect": float(np.sum(grid.x * (dens_up + dens_dn)) * dx),
        "Px": float(2.0 * cross.real),
        "Py": float(-2.0 * cross.imag),
        "Pz": float(np.sum(dens_up - dens_dn) * dx),
        "fidelity": float(np.abs(overlap) ** 2),
    }


def _position_half_step(up, dn, diag_up, diag_dn, w, tau):
    """exp(-i tau [[diag_up, w], [w, diag_dn]]) applied to the spinor."""
    if w == 0.0:
        return np.exp(-1j * tau * diag_up) * up, np.exp(-1j * tau * diag_dn) * dn
    mean = 0.5 * (diag_up + diag_dn)
    dz = 0.5 * (diag_up - diag_dn)
    r = np.hypot(dz, w)
    phase = np.exp(-1j * tau * mean)
    cos_r = np.cos(tau * r)
    sinc_r = np.where(r > 0.0, np.sin(tau * r) / np.where(r > 0.0, r, 1.0), tau)
    u11 = phase * (cos_r - 1j * sinc_r * dz)
    u12 = phase * (-1j * sinc_r * w)
    u22 = phase * (cos_r + 1j * sinc_r * dz)
    return u11 * up + u12 * dn, u12 * up + u22 * dn


def reference_evolve(fld: SpinorField, spec, schedule, dt=1e-3, t_f=None,
                     record_stride=1):
    """Half step in position, full step in momentum, half step in position,
    with midpoint controls; returns ``(times, {series: array})``."""
    raman = spec.scheme == "raman"
    if t_f is None:
        t_f = schedule.t_f
    grid = fld.grid
    nsteps = max(1, int(round(t_f / dt)))
    h = t_f / nsteps
    mids = (np.arange(nsteps) + 0.5) * h
    amp_mid = np.asarray(schedule.a_at(mids), dtype=float)
    gap_mid = np.asarray(schedule.b_at(mids), dtype=float)

    u_pot = potential(grid.x, spec.morse)
    k = grid.k
    kin_phase = np.exp(-1j * h * 0.5 * k**2)
    if raman:
        mom_up = kin_phase * np.exp(-1j * h * spec.alpha * k)
        mom_dn = kin_phase * np.exp(+1j * h * spec.alpha * k)
    else:
        ang = h * spec.alpha * k
        cos_ang = np.cos(ang)
        sin_ang = np.sin(ang)

    if spec.interacting:
        g_uu, g_dd, g_ud, g_du = raw_from_effective(spec)
    else:
        g_uu = g_dd = g_ud = g_du = 0.0
    nonlinear = spec.interacting

    tgt = target_state(grid, spec)
    up = fld.up.astype(complex)
    dn = fld.down.astype(complex)

    records = []

    def record(t):
        records.append((t, _observables(up, dn, tgt, grid)))

    record(0.0)
    tau = 0.5 * h
    for i in range(nsteps):
        a_m = amp_mid[i]
        b_m = gap_mid[i]

        def diagonals():
            d_up = u_pot + 0.5 * b_m
            d_dn = u_pot - 0.5 * b_m
            if nonlinear:
                dens_up = up.real**2 + up.imag**2
                dens_dn = dn.real**2 + dn.imag**2
                d_up = d_up + g_uu * dens_up + g_ud * dens_dn
                d_dn = d_dn + g_du * dens_up + g_dd * dens_dn
            return d_up, d_dn

        w = 0.5 * a_m if raman else 0.0
        d_up, d_dn = diagonals()
        up, dn = _position_half_step(up, dn, d_up, d_dn, w, tau)

        fu = np.fft.fft(up)
        fd = np.fft.fft(dn)
        if raman:
            fu *= mom_up
            fd *= mom_dn
        else:
            sin_t1 = np.sin(a_m)
            cos_t1 = np.cos(a_m)
            u11 = kin_phase * (cos_ang - 1j * sin_ang * cos_t1)
            u12 = kin_phase * (-1j * sin_ang * sin_t1)
            u22 = kin_phase * (cos_ang + 1j * sin_ang * cos_t1)
            fu, fd = u11 * fu + u12 * fd, u12 * fu + u22 * fd
        up = np.fft.ifft(fu)
        dn = np.fft.ifft(fd)

        d_up, d_dn = diagonals()
        up, dn = _position_half_step(up, dn, d_up, d_dn, w, tau)

        step_no = i + 1
        if step_no % record_stride == 0 or step_no == nsteps:
            record(step_no * h)

    times = np.array([t for t, _ in records])
    series = {name: np.array([s[name] for _, s in records]) for name in SERIES}
    return times, series
