"""Command-line front end: configs, orchestration, machine-readable outputs.

Configuration files are flat ``section.key = value`` text (diff friendly,
parsed without dependencies); all numeric CSV output uses 12 significant
digits and LF line endings so identical configs and seeds give bit
identical artifacts.  Each artifact-writing command works out all its
results first and then hands its files and scalars to one writer,
:func:`_write_outputs`, which writes them, the config snapshot and
``manifest.json``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .dynamics_grid import SpatialGrid, density_profile, evolve, init_basis_state, target_state
from .dynamics_two_level import propagate, propagate_nonlinear
from .errors import AccuracyError, ConfigError, NumericalFailureError, SocmorseError
from .morse import MorseSpec, characteristic_length, matrix_elements, overlap_Q
from .numerics import OdeSettings, write_csv, write_json
from .pulse_design import (
    TransferSpec,
    design_scheme1,
    design_scheme2,
    design_scheme2_interacting,
    effective_g,
)
from .robustness import (
    MAX_TRAJECTORIES,
    MIN_TRAJECTORIES,
    scan_noise,
    scan_systematic,
    scan_systematic_grid,
    stochastic_oracle,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_CANONICAL_INTERACTING_G11 = 0.3  # effective, sets the default raw couplings


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, with the canonical case as defaults."""

    depth_A: float = 8.0
    n: int = 0
    l: int = 1
    alpha: float = 1.6
    t_f: float = 10.0
    scheme: str = "raman"
    c: float = 0.1
    sample_count: int = 4096
    g_uu: float = 0.0
    g_dd: float = 0.0
    g_ud: float = 0.0
    g_du: float = 0.0
    x_min: float = -5.0
    x_max: float = 25.0
    points: int = 2048
    dt: float = 1e-3
    lambda_grid: tuple = tuple(np.round(np.arange(-0.5, 0.5001, 0.05), 10))
    lambda_prime_grid: tuple = tuple(np.round(np.arange(0.0, 1.0001, 0.05), 10))
    trajectories: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"grid.dt must be finite and positive, got {self.dt!r}")
        if self.trajectories != 0 and not (MIN_TRAJECTORIES <= self.trajectories
                                           <= MAX_TRAJECTORIES):
            raise ConfigError(f"noise.trajectories must be 0 (no oracle) or from "
                              f"{MIN_TRAJECTORIES} to {MAX_TRAJECTORIES}, "
                              f"got {self.trajectories}")
        if self.seed < 0:
            raise ConfigError(f"noise.seed must be non-negative, got {self.seed}")


_KEYS = {
    "transfer.depth_A": ("depth_A", float),
    "transfer.n": ("n", int),
    "transfer.l": ("l", int),
    "transfer.alpha": ("alpha", float),
    "transfer.t_f": ("t_f", float),
    "transfer.scheme": ("scheme", str),
    "design.c": ("c", float),
    "design.sample_count": ("sample_count", int),
    "interaction.g_uu": ("g_uu", float),
    "interaction.g_dd": ("g_dd", float),
    "interaction.g_ud": ("g_ud", float),
    "interaction.g_du": ("g_du", float),
    "grid.x_min": ("x_min", float),
    "grid.x_max": ("x_max", float),
    "grid.points": ("points", int),
    "grid.dt": ("dt", float),
    "noise.lambda": ("lambda_grid", "grid"),
    "noise.lambda_prime": ("lambda_prime_grid", "grid"),
    "noise.trajectories": ("trajectories", int),
    "noise.seed": ("seed", int),
}


# Most values one scan grid may hold: at the default step and operation time
# a full grid stays inside robustness.MAX_SCAN_NODES.  A 1000-point
# systematic scan of the tilted field, run as `socmorse scan` in a fresh
# process, took 3.3-3.4 s and 297-313 MiB peak resident memory on a 2-core
# Xeon.
MAX_SCAN_POINTS = 1000


def _parse_grid_value(text):
    """Scan values from a ``start:stop:step`` range or a comma list.  Raises
    :class:`ConfigError` for a non-finite range part or more than
    :data:`MAX_SCAN_POINTS` values, before anything is allocated."""
    text = text.strip()
    if ":" not in text:
        parts = text.split(",")
        if len(parts) > MAX_SCAN_POINTS:
            raise ConfigError(f"{len(parts)} scan values exceed the "
                              f"{MAX_SCAN_POINTS}-point limit")
        return tuple(float(p) for p in parts)
    parts = [float(p) for p in text.split(":")]
    if len(parts) != 3:
        raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if not all(map(math.isfinite, parts)) or step <= 0 or stop < start:
        raise ConfigError(f"bad grid range {text!r}")
    steps = (stop - start) / step  # inf when the quotient overflows
    if not steps + 1.0 <= MAX_SCAN_POINTS:
        raise ConfigError(f"grid range {text!r} holds {steps + 1.0:.6g} points, more "
                          f"than the {MAX_SCAN_POINTS}-point limit")
    vals = start + step * np.arange(int(round(steps)) + 1)
    vals = vals[vals <= stop + 1e-12 * max(1.0, abs(stop))]
    return tuple(np.round(vals, 12))


def parse_config_text(text) -> RunConfig:
    """Parse flat key-value configuration text; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, typ = _KEYS[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if typ == "grid":
                values[attr] = _parse_grid_value(val)
            else:
                values[attr] = typ(val)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _config_items(config: RunConfig):
    """(key, value) of every setting in field order: the one walk behind the
    config snapshot and the manifest's config block."""
    return [(key, getattr(config, attr)) for key, (attr, _) in _KEYS.items()]


def config_to_text(config: RunConfig) -> str:
    """Round-trippable snapshot of a configuration."""
    lines = []
    for key, val in _config_items(config):
        if isinstance(val, tuple):
            text = ",".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def build_transfer_spec(config: RunConfig) -> TransferSpec:
    """Transfer spec with effective interaction constants derived from the
    raw per-spin couplings; an all-zero interacting config defaults to the
    raw value that makes the leading effective constant 0.3."""
    morse = MorseSpec(config.depth_A)
    raw = (config.g_uu, config.g_dd, config.g_ud, config.g_du)
    if config.scheme == "so_direction_interacting" and not any(raw):
        g_auto = _CANONICAL_INTERACTING_G11 / overlap_Q(config.n, config.n, morse)
        raw = (g_auto, g_auto, g_auto, g_auto)
    if any(raw):
        g11, g22, g12, g21 = effective_g(raw, morse, config.n, config.l)
    else:
        g11 = g22 = g12 = g21 = 0.0
    return TransferSpec(
        morse=morse,
        n=config.n,
        l=config.l,
        alpha=config.alpha,
        t_f=config.t_f,
        c=config.c,
        scheme=config.scheme,
        g11=g11,
        g22=g22,
        g12=g12,
        g21=g21,
    )


# ---------------------------------------------------------------------------
# output


def _write_outputs(command, config: RunConfig, out_dir, started, writes, scalars):
    """The one writer of what a command leaves behind: each ``(file name,
    write)`` of ``writes`` in order, then ``config_snapshot.txt``, then
    ``manifest.json`` listing them with ``scalars``.  ``write(path)`` returns
    the path or paths it wrote; ``started`` is the command's
    ``time.perf_counter()`` at its start.  The output directory is made here,
    once the run has succeeded, so a run rejected before it leaves none.
    Returns the artifact paths."""
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    for name, write in writes:
        paths = write(os.path.join(out_dir, name))
        artifacts.extend([paths] if isinstance(paths, str) else paths)
    snapshot = os.path.join(out_dir, "config_snapshot.txt")
    with open(snapshot, "w", newline="\n") as fh:
        fh.write(config_to_text(config))
    artifacts.append(snapshot)
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "version": __version__,
        "artifacts": artifacts,
        "scalars": scalars,
        "config": {key: list(val) if isinstance(val, tuple) else val
                   for key, val in _config_items(config)},
        "wall_time_s": round(time.perf_counter() - started, 3),
    })
    return artifacts


# ---------------------------------------------------------------------------
# pipeline steps shared by the commands


_DESIGNS = {
    "raman": design_scheme1,
    "so_direction": design_scheme2,
    "so_direction_interacting": design_scheme2_interacting,
}


def _design(config: RunConfig):
    """Spec, matrix elements and designed schedule of a config."""
    spec = build_transfer_spec(config)
    me = matrix_elements(spec.n, spec.l, spec.alpha, spec.morse)
    return spec, me, _DESIGNS[spec.scheme](spec, me, config.sample_count)


def _twolevel_run(config: RunConfig, spec, me, schedule):
    """Two-level propagation, with the mean field when the spec has one."""
    prop = propagate_nonlinear if spec.interacting else propagate
    return prop(spec, me, schedule, OdeSettings(step=config.dt))


_DENSITY_HEADER = "x,dens_up,dens_down,dens_target"


def _grid_run(config: RunConfig, spec, schedule):
    """Grid-engine run from the initial basis state: the report and the
    final density columns under ``_DENSITY_HEADER``."""
    grid = SpatialGrid(config.x_min, config.x_max, config.points)
    fld = init_basis_state(grid, spec.morse, spec.n, "up", spec.alpha)
    final, rep = evolve(fld, spec, schedule, dt=config.dt)
    dens_up, dens_dn = density_profile(final)
    tgt_up, tgt_dn = density_profile(target_state(grid, spec))
    return rep, (grid.x, dens_up, dens_dn, tgt_up + tgt_dn)


def _curves(config: RunConfig):
    """Designed curves ``(suffix, config, spec, schedule)``: the config
    alone, or for a mean-field config its non-interacting twin, then itself."""
    curves = [("", config)]
    if build_transfer_spec(config).interacting:
        twin = replace(config, scheme="so_direction",
                       g_uu=0.0, g_dd=0.0, g_ud=0.0, g_du=0.0)
        curves = [("_noninteracting", twin), ("_interacting", config)]
    for suffix, cfg in curves:
        spec, _, schedule = _design(cfg)
        yield suffix, cfg, spec, schedule


_SCAN_GRIDS = {"systematic": "lambda_grid", "noise": "lambda_prime_grid"}


def _scan(kind, engine, config: RunConfig, spec, schedule):
    """Fidelity scan of one designed curve over the config's grid for ``kind``."""
    values = getattr(config, _SCAN_GRIDS[kind])
    if kind == "noise":
        return scan_noise(spec, schedule, values, dt=config.dt)
    if engine == "grid":
        grid = SpatialGrid(config.x_min, config.x_max, config.points)
        return scan_systematic_grid(spec, schedule, values, grid=grid, dt=config.dt)
    return scan_systematic(spec, schedule, values, OdeSettings(step=config.dt))


# ---------------------------------------------------------------------------
# commands


def cmd_inspect(config: RunConfig, out_dir=None):
    spec = build_transfer_spec(config)
    morse = spec.morse
    me = matrix_elements(spec.n, spec.l, spec.alpha, morse)
    info = {
        "depth_A": morse.depth_A,
        "eta": morse.eta,
        "bound_count": morse.bound_count,
        "levels": [
            {"n": s.n, "xi": s.xi, "energy": s.energy} for s in morse.bound_states()
        ],
        "characteristic_length": characteristic_length(morse),
        "Q": {
            f"{a}{b}": overlap_Q(a, b, morse)
            for a, b in ((spec.n, spec.n), (spec.l, spec.l), (spec.n, spec.l))
        },
        "alpha": spec.alpha,
        "G": [me.G.real, me.G.imag],
        "K": [me.K.real, me.K.imag],
        "M_coupling": [me.M_coupling.real, me.M_coupling.imag],
        "abs_S": abs(me.S),
        "x_diag": {"n": me.x_diag_n, "l": me.x_diag_l},
        "effective_g": dict(zip(("g11", "g22", "g12", "g21"), spec.g_effective)),
    }
    print(f"trap depth A = {morse.depth_A}, eta = {morse.eta}, "
          f"{morse.bound_count} bound states")
    for s in morse.bound_states():
        print(f"  n={s.n}: xi={s.xi:.6g}  E={s.energy:.6g}")
    print(f"characteristic length: {info['characteristic_length']:.6g}")
    print(f"G = {me.G:.8g}  |G| = {abs(me.G):.8g}")
    print(f"K = {me.K:.8g}")
    print(f"M = {me.M_coupling:.8g}  |M| = {abs(me.M_coupling):.8g}")
    print(f"|S| (transverse-polarization overlap) = {abs(me.S):.8g}")
    print(f"x moments: <n|x|n> = {me.x_diag_n:.8g}, <l|x|l> = {me.x_diag_l:.8g}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = write_json(os.path.join(out_dir, "inspect.json"), info)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_design(config: RunConfig, out_dir):
    started = time.perf_counter()
    spec, _, schedule = _design(config)
    ends = schedule.endpoint_summary()
    print(f"boundary gap delta_E = {spec.delta_e:.6g}")
    print(f"{schedule.label_b} endpoints: {ends['b_start']:.6g} -> {ends['b_end']:.6g}")
    print(f"{schedule.label_a} endpoints: {ends['a_start']:.6g} -> {ends['a_end']:.6g} "
          f"(peak |{schedule.label_a}| = {schedule.max_abs_a:.6g})")
    scalars = {"delta_e": spec.delta_e, "b_start": ends["b_start"],
               "b_end": ends["b_end"], "max_abs_a": schedule.max_abs_a}
    artifacts = _write_outputs("design", config, out_dir, started,
                               [("schedule.csv", schedule.to_csv)], scalars)
    print(f"wrote {artifacts[0]}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, engine: str, out_dir):
    started = time.perf_counter()
    spec, me, schedule = _design(config)

    if engine == "twolevel":
        traj = _twolevel_run(config, spec, me, schedule)
        writes = [("trajectory.csv", partial(traj.to_csv, stride=10))]
        fid, norm = traj.final_fidelity, traj.norm()[-1]
        report = {"abs_S": abs(me.S), "max_abs_a": schedule.max_abs_a}
    elif engine == "grid":
        rep, density = _grid_run(config, spec, schedule)
        writes = [("grid_report.csv", rep.to_csv),
                  ("final_density.csv",
                   partial(write_csv, header=_DENSITY_HEADER, columns=density))]
        fid, norm = rep.final_fidelity, rep.norm[-1]
        report = {
            "max_abs_tilt": rep.max_abs_tilt,
            "Pz_start": float(rep.Pz[0]),
            "Pz_end": float(rep.Pz[-1]),
            "x_expect_start": float(rep.x_expect[0]),
            "x_expect_end": float(rep.x_expect[-1]),
        }
    else:
        raise ConfigError(f"unknown engine {engine!r}")

    report.update(engine=engine, final_fidelity=fid, norm_drift=abs(float(norm) - 1.0))
    writes.append(("report.json", partial(write_json, data=report)))
    _write_outputs(f"simulate:{engine}", config, out_dir, started, writes,
                   {"final_fidelity": fid, "delta_e": spec.delta_e})
    print(f"final fidelity: {fid:.6f}")
    return EXIT_OK


def cmd_scan(config: RunConfig, kind: str, out_dir, seed=None, engine="twolevel"):
    started = time.perf_counter()
    if seed is not None:
        config = replace(config, seed=seed)
    if config.scheme == "raman":
        raise ConfigError("scans require a tilted-field scheme "
                          "(transfer.scheme = so_direction[_interacting])")
    if kind not in _SCAN_GRIDS:
        raise ConfigError(f"unknown scan kind {kind!r}")
    if engine == "grid" and kind != "systematic":
        raise ConfigError("the grid engine is available for systematic scans only")
    values = getattr(config, _SCAN_GRIDS[kind])
    if len(values) == 0:
        raise ConfigError("empty scan grid")
    writes, scalars, failed = [], {}, 0
    for suffix, cfg, spec, schedule in _curves(config):
        result = _scan(kind, engine, cfg, spec, schedule)
        write = result.to_csv
        if kind == "noise" and cfg.trajectories > 0:
            oracle = np.full((2, len(values)), np.nan)  # rows: fidelity, standard error
            for i, lam in enumerate(values):
                oracle[:, i] = stochastic_oracle(spec, schedule, lam,
                                                 trajectories=cfg.trajectories,
                                                 seed=(cfg.seed, i))
            write = partial(write_csv,
                            header="lambda_prime,fidelity,oracle_fidelity,oracle_stderr",
                            columns=(result.values, result.fidelities, *oracle))
        writes.append((f"scan_{kind}{suffix}.csv", write))
        if kind == "systematic":
            curvature = result.curvature_at_zero()
            if curvature is not None:
                scalars[f"curvature_at_zero{suffix}"] = curvature
        failed += len(result.failures)

    total = len(values) * len(writes)
    scalars.update(points=total, failed_points=failed)
    _write_outputs(f"scan:{kind}", config, out_dir, started, writes, scalars)
    if failed > 0.1 * total:
        print(f"scan failed on {failed}/{total} points", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# Each figure maps the canonical config to its CSV tables
# ``(file name, header, columns)`` and its manifest scalars.


def _fig2(config: RunConfig):
    alphas = (0.8, 1.2, 1.6, 2.0)
    schedules = [_design(replace(config, alpha=a))[2] for a in alphas]
    delta = schedules[0].channel_b
    header = "t," + ",".join(f"Omega_alpha{a:g}" for a in alphas) + ",Delta"
    columns = [schedules[0].times, *(s.channel_a for s in schedules), delta]
    spread = max(float(np.max(np.abs(s.channel_b - delta))) for s in schedules[1:])
    return [("fig2.csv", header, columns)], {"max_delta_spread": spread}


def _trajectory_figure(figure, names, config: RunConfig):
    """Columns of the two-level run's ``trajectory.csv`` observables."""
    obs = _twolevel_run(config, *_design(config)).observables(stride=10)
    scalars = {}
    if "Pz" in names:  # the polarization figure records its endpoints
        scalars = {"Pz_start": float(obs["Pz"][0]), "Pz_end": float(obs["Pz"][-1])}
    return [(f"{figure}.csv", ",".join(names), [obs[name] for name in names])], scalars


def _fig6(config: RunConfig):
    tables, scalars = [], {}
    for panel, c in (("a", 0.1), ("b", 1.5)):
        cfg = replace(config, c=c)
        spec, _, schedule = _design(cfg)
        rep, density = _grid_run(cfg, spec, schedule)
        tables.append((f"fig6{panel}.csv", _DENSITY_HEADER, density))
        scalars[f"fidelity_c{c:g}"] = rep.final_fidelity
    return tables, scalars


def _fig7(config: RunConfig):
    cfg = replace(config, scheme="so_direction_interacting")
    (*_, non), (*_, inter) = _curves(cfg)
    columns = (non.times, non.channel_a, non.channel_b, inter.channel_b)
    return ([("fig7.csv", "t,theta1,beta_noninteracting,beta_interacting", columns)],
            {"max_abs_theta1": non.max_abs_a})


def _scan_figure(figure, kind, config: RunConfig):
    cfg = replace(config, scheme="so_direction_interacting")
    results = [(suffix, _scan(kind, "twolevel", c, spec, schedule))
               for suffix, c, spec, schedule in _curves(cfg)]
    first = results[0][1]
    header = ",".join([first.parameter] + [f"fidelity{suffix}" for suffix, _ in results])
    columns = [first.values] + [res.fidelities for _, res in results]
    return [(f"{figure}.csv", header, columns)], {}


_FIGURES = {
    "fig2": _fig2,
    "fig3": partial(_trajectory_figure, "fig3", ("t", "x_expect", "x_expect_over_lc")),
    "fig4": partial(_trajectory_figure, "fig4", ("t", "Px", "Py", "Pz")),
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": partial(_scan_figure, "fig8", "systematic"),
    "fig9": partial(_scan_figure, "fig9", "noise"),
}


def cmd_reproduce(figure: str, out_dir):
    """Regenerate the datasets behind the reference figures from the
    canonical configuration."""
    started = time.perf_counter()
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; choose from {tuple(_FIGURES)}")
    config = RunConfig()
    tables, scalars = _FIGURES[figure](config)
    writes = [(name, partial(write_csv, header=header, columns=columns))
              for name, header, columns in tables]
    _write_outputs(f"reproduce:{figure}", config, out_dir, started, writes, scalars)
    print(f"wrote {figure} dataset to {out_dir}")
    return EXIT_OK


def cmd_validate(json_path=None, fast=False):
    from .acceptance import run_all

    results = run_all(fast=fast)
    hard_fail = False
    for res in results:
        if res.skipped:
            status = "SKIPPED"
        elif res.passed:
            status = "PASS"
        elif res.expected_fail:
            status = "FAIL (known infeasible, see notes)"
        else:
            status = "FAIL"
            hard_fail = True
        print(f"{res.label:<44s} {status}")
        for line in res.details:
            print(f"    {line}")
    passed = sum(r.passed for r in results)
    known = sum((not r.passed) and r.expected_fail for r in results)
    skipped = sum(r.skipped for r in results)
    summary = f"\n{passed}/{len(results)} criteria passed"
    if known:
        summary += f", {known} known-infeasible"
    if skipped:
        summary += f", {skipped} skipped"
    print(summary)
    if json_path:
        write_json(json_path, [
            {"label": r.label, "passed": r.passed, "skipped": r.skipped,
             "expected_fail": r.expected_fail, "details": r.details}
            for r in results
        ])
    return EXIT_NUMERICAL if hard_fail else EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="socmorse",
        description="Design and verify spin-flip transfer pulses for a "
                    "spin-orbit-coupled atom in an exponential trap.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out-dir", default="socmorse-output",
                       help="directory for artifacts (default: %(default)s)")

    p = sub.add_parser("inspect", help="print trap structure and matrix elements")
    p.add_argument("--config")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(run=lambda args, config: cmd_inspect(config, args.out_dir))

    p = sub.add_parser("design", help="design a control schedule")
    add_common(p)
    p.set_defaults(run=lambda args, config: cmd_design(config, args.out_dir))

    p = sub.add_parser("simulate", help="propagate a designed schedule")
    add_common(p)
    p.add_argument("--engine", choices=("twolevel", "grid"), default="twolevel")
    p.set_defaults(run=lambda args, config: cmd_simulate(config, args.engine, args.out_dir))

    p = sub.add_parser("scan", help="robustness scans")
    add_common(p)
    p.add_argument("--kind", choices=("systematic", "noise"), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--engine", choices=("twolevel", "grid"), default="twolevel",
                   help="systematic scans can be spot-checked on the full grid")
    p.set_defaults(run=lambda args, config: cmd_scan(config, args.kind, args.out_dir,
                                                     seed=args.seed, engine=args.engine))

    p = sub.add_parser("reproduce", help="regenerate reference figure datasets")
    p.add_argument("--figure", choices=_FIGURES, required=True)
    p.add_argument("--out-dir", default="socmorse-output")
    p.set_defaults(run=lambda args, config: cmd_reproduce(args.figure, args.out_dir))

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--json", default=None, help="also write results as JSON")
    p.add_argument("--fast", action="store_true",
                   help="skip the slowest grid checks (not a full validation)")
    p.set_defaults(run=lambda args, config: cmd_validate(args.json, args.fast))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
        return args.run(args, config)
    except (NumericalFailureError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SocmorseError, FileNotFoundError) as exc:  # a value the program rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
