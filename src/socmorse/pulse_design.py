"""Invariant-based inverse engineering of the transfer schedules.

The state path is pinned by a smooth-step polar angle (cubic in time) and
an azimuthal angle fixed by a singularity-cancelling constraint with gap
parameter ``c``; the control channels then follow in closed form.  Two
schemes share the machinery: a Raman pair (coupling amplitude, detuning)
and a tilted spin-orbit field (tilt angle, Zeeman amplitude), the latter
optionally compensated for mean-field interactions.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DesignInfeasibleError, DomainError
from .morse import MatrixElements, MorseSpec, overlap_Q
from .numerics import write_csv, write_json

__all__ = [
    "SCHEMES",
    "AdiabaticityWarning",
    "SmallAngleWarning",
    "TransferSpec",
    "PulseSchedule",
    "design_scheme1",
    "design_scheme2",
    "design_scheme2_interacting",
    "effective_g",
    "raw_from_effective",
    "invariant_residual",
]

SCHEMES = ("raman", "so_direction", "so_direction_interacting")

_COUPLING_FLOOR = 1e-12

# Most samples one schedule may hold: a 10**6-sample design run took 2.3 s
# and 261 MiB peak resident memory on a 2-core Xeon.
MAX_SAMPLE_COUNT = 10**6


class AdiabaticityWarning(UserWarning):
    """Operation time is not clearly long compared to the boundary gap."""


class SmallAngleWarning(UserWarning):
    """Designed tilt angle leaves the small-angle regime it assumes."""


@dataclass(frozen=True)
class TransferSpec:
    """Full statement of one transfer problem.

    Interaction constants need a tilted-field scheme; the Raman scheme has
    no mean-field design.
    """

    morse: MorseSpec
    n: int = 0
    l: int = 1
    alpha: float = 1.6
    t_f: float = 10.0
    c: float = 0.1
    scheme: str = "raman"
    g11: float = 0.0
    g22: float = 0.0
    g12: float = 0.0
    g21: float = 0.0

    def __post_init__(self):
        if self.l != self.n + 1:
            raise DomainError(f"target must be l = n+1, got n={self.n}, l={self.l}")
        if not self.t_f > 0:
            raise DomainError("operation time must be positive")
        if not math.isfinite(self.t_f * self.t_f):  # the designs use t_f**2
            raise DomainError(f"operation time t_f must be finite with a finite square, "
                              f"got {self.t_f}")
        if not math.isfinite(self.alpha):
            raise DomainError(f"spin-orbit strength alpha must be finite, got {self.alpha}")
        if self.c == 0:
            raise DomainError("gap parameter c must be nonzero")
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if not all(map(math.isfinite, self.g_effective)):
            raise DomainError(f"interaction constants must be finite, got {self.g_effective}")
        if self.scheme == "raman" and self.interacting:
            raise DomainError("interaction constants need a tilted-field scheme "
                              "(so_direction or so_direction_interacting), not raman")
        self.morse.bound_state(self.l)  # both states must be bound
        if self.t_f * self.delta_e < 10.0:
            warnings.warn(
                f"t_f * gap = {self.t_f * self.delta_e:.3g} < 10; the two-level "
                "reduction assumes the operation is slow on the gap scale",
                AdiabaticityWarning,
                stacklevel=3,  # past the dataclass __init__ to the caller
            )

    @property
    def delta_e(self) -> float:
        """Boundary energy gap of the dressed two-level system."""
        return 1.5 * abs(self.c)

    @property
    def energy_n(self) -> float:
        return self.morse.bound_state(self.n).energy

    @property
    def energy_l(self) -> float:
        return self.morse.bound_state(self.l).energy

    @property
    def level_splitting(self) -> float:
        return self.energy_l - self.energy_n

    @property
    def g_effective(self):
        return (self.g11, self.g22, self.g12, self.g21)

    @property
    def interacting(self) -> bool:
        return any(g != 0.0 for g in self.g_effective)

    def to_dict(self):
        return {
            "depth_A": self.morse.depth_A,
            "n": self.n,
            "l": self.l,
            "alpha": self.alpha,
            "t_f": self.t_f,
            "c": self.c,
            "scheme": self.scheme,
            "g11": self.g11,
            "g22": self.g22,
            "g12": self.g12,
            "g21": self.g21,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        morse = MorseSpec(d.pop("depth_A"))
        return cls(morse=morse, **d)


def _path(t, t_f: float, c: float):
    """The designed state path at time(s) t, evaluated once per call.

    The polar angle is a cubic smooth step 0 -> pi with zero endpoint rate,
    evaluated through theta or pi - theta, whichever is nearer (the same
    cubic in the remaining time), so sin(theta) keeps full precision as
    theta -> pi.  The azimuth phi_a follows from the constraint
    tan(phi - phi_a) = theta' / (c sin theta), on the branch with
    cos(phi - phi_a) >= 0, continuous inside (0, t_f).

    Returns arrays ``(sin theta, cos theta, theta', r, phi_a')`` with
    r = hypot(theta', c sin theta); phi_a' takes its finite limits +-c/2
    where theta' and sin(theta) both vanish.
    """
    s = np.clip(np.asarray(t, dtype=float) / t_f, 0.0, 1.0)
    first_half = s <= 0.5
    u = np.where(first_half, s, 1.0 - s)
    near = np.pi * u * u * (3.0 - 2.0 * u)  # theta or pi - theta
    sin_t = np.sin(near)
    cos_t = np.where(first_half, np.cos(near), -np.cos(near))
    dth = 6.0 * np.pi * s * (1.0 - s) / t_f
    ddth = 6.0 * np.pi * (1.0 - 2.0 * s) / t_f**2
    num = c * (dth * dth * cos_t - ddth * sin_t)
    den = (c * sin_t) ** 2 + dth * dth
    dphi_a = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                      np.where(first_half, 0.5 * c, -0.5 * c))
    return sin_t, cos_t, dth, np.hypot(dth, c * sin_t), dphi_a


def _less_mean_field(b, cos_t, g):
    """``b`` less the mean-field splitting n1 - n2 on the designed path.

    The path holds populations p1 = (1 + cos theta)/2 and
    p2 = (1 - cos theta)/2, so n1 = g11 p1 + g12 p2 and n2 = g21 p1 + g22 p2.
    """
    g11, g22, g12, g21 = g
    p1 = 0.5 * (1.0 + cos_t)
    p2 = 0.5 * (1.0 - cos_t)
    return b - g11 * p1 - g12 * p2 + g22 * p2 + g21 * p1


# ---------------------------------------------------------------------------
# schedules


@dataclass
class PulseSchedule:
    """Sampled control channels plus the callables that evaluate them.

    One interpolation rule: a channel at time(s) t is ``fn_a``/``fn_b`` at
    t clipped to [times[0], times[-1]], a float for a scalar t.  A designed
    schedule carries the exact closed forms; a schedule given only samples
    (every :meth:`from_csv` result) gets not-a-knot cubic splines through
    them, built once on construction.  The channel labels follow from the
    scheme and :attr:`phi` from the coupling.
    """

    times: np.ndarray
    channel_a: np.ndarray
    channel_b: np.ndarray
    spec: TransferSpec
    coupling: complex
    fn_a: Optional[Callable] = field(default=None, repr=False)
    fn_b: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.channel_a = np.asarray(self.channel_a, dtype=float)
        self.channel_b = np.asarray(self.channel_b, dtype=float)
        if not (len(self.times) == len(self.channel_a) == len(self.channel_b)):
            raise DomainError("schedule columns must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")
        for name, col in (("times", self.times), (self.label_a, self.channel_a),
                          (self.label_b, self.channel_b)):
            if not np.all(np.isfinite(col)):
                raise DomainError(f"non-finite values in {name}")
        self.fn_a = self.fn_a or CubicSpline(self.times, self.channel_a)
        self.fn_b = self.fn_b or CubicSpline(self.times, self.channel_b)

    @property
    def t_f(self) -> float:
        return float(self.times[-1])

    @property
    def label_a(self) -> str:
        return "Omega" if self.spec.scheme == "raman" else "theta1"

    @property
    def label_b(self) -> str:
        return "Delta" if self.spec.scheme == "raman" else "beta"

    @property
    def phi(self) -> float:
        """Phase of the coupling."""
        return math.atan2(self.coupling.imag, self.coupling.real)

    def _at(self, fn, t):
        out = fn(np.clip(t, self.times[0], self.times[-1]))
        return out if np.ndim(out) else float(out)

    def a_at(self, t):
        return self._at(self.fn_a, t)

    def b_at(self, t):
        return self._at(self.fn_b, t)

    @property
    def max_abs_a(self) -> float:
        return float(np.max(np.abs(self.channel_a)))

    def endpoint_summary(self):
        return {
            "a_start": float(self.channel_a[0]),
            "a_end": float(self.channel_a[-1]),
            "b_start": float(self.channel_b[0]),
            "b_end": float(self.channel_b[-1]),
        }

    def reduced_terms(self, t):
        """The reduced two-level Hamiltonian the schedule sets at time(s) t.

        Returns ``(Z, od)`` for H = [[Z/2, od], [conj(od), -Z/2]] in the
        basis (initial state spin up, target state spin down):
        Z = E_n - E_l + b(t) and od = (X + iY)/2 = a(t) * coupling, halved
        for the Raman pair.  Works on scalars and on any time array.
        """
        spec = self.spec
        half = 0.5 if spec.scheme == "raman" else 1.0
        z = spec.energy_n - spec.energy_l + np.asarray(self.b_at(t), dtype=float)
        od = half * self.coupling * np.asarray(self.a_at(t), dtype=float)
        return z, od

    def with_channel_b_scaled(self, factor: float) -> "PulseSchedule":
        """Same schedule with the second channel multiplied by ``factor``."""
        return PulseSchedule(
            times=self.times.copy(),
            channel_a=self.channel_a.copy(),
            channel_b=factor * self.channel_b,
            spec=self.spec,
            coupling=self.coupling,
            fn_a=self.fn_a,
            fn_b=lambda t, f=self.fn_b: factor * np.asarray(f(t)),
        )

    # -- serialization ------------------------------------------------------

    def to_csv(self, csv_path):
        """Write samples as CSV plus a JSON sidecar with the metadata."""
        csv_path = str(csv_path)
        write_csv(csv_path, "t,channel_a,channel_b",
                  (self.times, self.channel_a, self.channel_b))
        meta = {
            "format_version": 1,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "spec": self.spec.to_dict(),
            "coupling": [self.coupling.real, self.coupling.imag],
            "phi": self.phi,
            "delta_e": self.spec.delta_e,
            "endpoints": self.endpoint_summary(),
            "max_abs_a": self.max_abs_a,
            "sample_count": int(len(self.times)),
        }
        return csv_path, write_json(_sidecar_path(csv_path), meta)

    @classmethod
    def from_csv(cls, csv_path):
        """Read a schedule written by :meth:`to_csv`; channels are then
        evaluated by cubic splines through the samples."""
        csv_path = str(csv_path)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        with open(_sidecar_path(csv_path)) as fh:
            meta = json.load(fh)
        spec = TransferSpec.from_dict(meta["spec"])
        return cls(
            times=data[:, 0],
            channel_a=data[:, 1],
            channel_b=data[:, 2],
            spec=spec,
            coupling=complex(meta["coupling"][0], meta["coupling"][1]),
        )


def _sidecar_path(csv_path: str) -> str:
    """The JSON metadata file that goes with a schedule CSV."""
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


# ---------------------------------------------------------------------------
# the designs


def _build_schedule(spec, coupling, denom, sample_count, compensation=None):
    if abs(coupling) < _COUPLING_FLOOR:
        raise DesignInfeasibleError(
            f"coupling magnitude {abs(coupling):.3g} too small to drive the "
            f"transfer (alpha={spec.alpha})"
        )
    if not 16 <= sample_count <= MAX_SAMPLE_COUNT:
        raise DomainError(f"sample_count must be between 16 and {MAX_SAMPLE_COUNT}, "
                          f"got {sample_count}")
    t_f, c, split = spec.t_f, spec.c, spec.level_splitting
    sg = 1.0 if c > 0 else -1.0

    def amp(t):
        # equals -theta' / (denom sin(phi - phi_a)) on the constraint branch,
        # but stays finite at the endpoints where that quotient is 0/0
        return -sg * _path(t, t_f, c)[3] / denom

    def gap(t):
        # the constraint reduces the singular term to c cos(theta); the
        # endpoint rates +-c/2 give gaps of 3|c|/2
        _, cos_t, _, _, dphi_a = _path(t, t_f, c)
        b = split - dphi_a - c * cos_t
        return b if compensation is None else _less_mean_field(b, cos_t, compensation)

    times = np.linspace(0.0, spec.t_f, sample_count)
    return PulseSchedule(
        times=times,
        channel_a=np.asarray(amp(times)),
        channel_b=np.asarray(gap(times)),
        spec=spec,
        coupling=coupling,
        fn_a=amp,
        fn_b=gap,
    )


def design_scheme1(spec: TransferSpec, me: MatrixElements, sample_count: int = 4096):
    """Raman-channel schedule (coupling amplitude, detuning).

    The detuning depends only on the angle path and c, so it is identical
    for every spin-orbit strength; only the amplitude rescales with 1/|G|.
    """
    return _build_schedule(spec, me.G, abs(me.G), sample_count)


def _design_tilt(spec, me, sample_count, compensation=None):
    sched = _build_schedule(spec, me.M_coupling, 2.0 * abs(me.M_coupling),
                            sample_count, compensation)
    if sched.max_abs_a > 0.3:
        warnings.warn(
            f"peak tilt angle {sched.max_abs_a:.3f} rad exceeds 0.3; the "
            "linear-in-angle design degrades beyond this",
            SmallAngleWarning,
            stacklevel=3,  # past the public design function to its caller
        )
    return sched


def design_scheme2(spec: TransferSpec, me: MatrixElements, sample_count: int = 4096):
    """Tilted-field schedule (tilt angle of the SO axis, Zeeman amplitude).

    The tilt angle enters the reduced model linearly, so the design is valid
    in the small-angle regime; a warning reports when the peak tilt leaves
    it.  The reduced model also omits the second-order shift of the
    detuning by kappa sin^2(theta1) (kappa = 0.723 at the canonical
    parameters) from the spin-flip coupling to every other level, which the
    grid simulation contains; it, not leakage (on the default grid about
    7.2e-4 of the population leaves the two states), sets the grid fidelity
    of this design.
    """
    return _design_tilt(spec, me, sample_count)


def design_scheme2_interacting(spec: TransferSpec, me: MatrixElements,
                               sample_count: int = 4096):
    """Tilted-field schedule with the Zeeman channel compensating mean-field
    shifts; the tilt channel is unchanged from the noninteracting design."""
    return _design_tilt(spec, me, sample_count,
                        compensation=(spec.g11, spec.g22, spec.g12, spec.g21))


def effective_g(raw_g, morse: MorseSpec, n: int, l: int):
    """Scale raw per-spin couplings (uu, dd, ud, du) by the density overlaps.

    Returns the reduced-model constants (g11, g22, g12, g21).
    """
    g_uu, g_dd, g_ud, g_du = raw_g
    q_nn = overlap_Q(n, n, morse)
    q_ll = overlap_Q(l, l, morse)
    q_nl = overlap_Q(n, l, morse)
    return (g_uu * q_nn, g_dd * q_ll, g_ud * q_nl, g_du * q_nl)


def raw_from_effective(spec: TransferSpec):
    """Invert :func:`effective_g` for the grid simulation (uu, dd, ud, du)."""
    q_nn = overlap_Q(spec.n, spec.n, spec.morse)
    q_ll = overlap_Q(spec.l, spec.l, spec.morse)
    q_nl = overlap_Q(spec.n, spec.l, spec.morse)
    return (spec.g11 / q_nn, spec.g22 / q_ll, spec.g12 / q_nl, spec.g21 / q_nl)


# ---------------------------------------------------------------------------
# self-test of a schedule against the state path it was built from


def invariant_residual(schedule: PulseSchedule, t: float) -> float:
    """Frobenius norm of i dI/dt - [H, I] at time t.

    I is the tracked-path operator built from the design angles; H is
    assembled from the schedule's channels, and for the interacting scheme
    its mean-field diagonal is evaluated on the designed path, the model in
    which the compensated design is exact.  Vanishes (to rounding) for an
    uncorrupted designed schedule at interior times.
    """
    spec = schedule.spec
    if not 0.0 < t < spec.t_f:
        raise DomainError("residual is defined on the open interval (0, t_f)")
    sin_t, cos_t, dth, r, dphi = _path(t, spec.t_f, spec.c)
    sg = 1.0 if spec.c > 0 else -1.0
    # exp(i phi_a) with phi - phi_a = atan2(sg theta', |c| sin theta); r > 0 inside
    eip = np.exp(1j * schedule.phi) * (abs(spec.c) * sin_t - 1j * sg * dth) / r
    inv = 0.5 * np.array(
        [[cos_t, sin_t * eip], [sin_t * np.conj(eip), -cos_t]], dtype=complex
    )
    dinv = 0.5 * np.array(
        [
            [-sin_t * dth, (cos_t * dth + 1j * dphi * sin_t) * eip],
            [(cos_t * dth - 1j * dphi * sin_t) * np.conj(eip), sin_t * dth],
        ],
        dtype=complex,
    )
    z, off = schedule.reduced_terms(t)
    if spec.scheme == "so_direction_interacting":
        z = z - _less_mean_field(0.0, cos_t, spec.g_effective)  # z + n1 - n2
    h = np.array([[0.5 * z, off], [np.conj(off), -0.5 * z]], dtype=complex)
    resid = 1j * dinv - (h @ inv - inv @ h)
    return float(np.linalg.norm(resid))
