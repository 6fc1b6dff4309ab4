"""Which socmorse functions are traced, and the per-layer metrics made from them.

Layers are socmorse's modules.  Times ending in ``_s`` are medians of one
call; ``_us`` are microseconds per step (or per call for the residual);
``self_s`` metrics sum a layer's self time.  Counts and ``self_s`` cover
the set-up plus the first round, so they are the same for any run length.
``trace.overhead_s`` estimates what tracing adds to one round: the spans of
a round times the measured cost of one span.  Times are rescaled to the
reference speed: a span by the speed samples taken inside it when there
are at least three, otherwise by the run's mean speed.
"""

from __future__ import annotations

from tracer import median

PER_LAYER = (
    ("numerics.integrate_s", "s"),
    ("numerics.integrate.calls", "count"),
    ("numerics.self_s", "s"),
    ("morse.matrix_elements.cold_s", "s"),
    ("morse.matrix_elements.warm_s", "s"),
    ("morse.overlap_Q.cold_s", "s"),
    ("morse.self_s", "s"),
    ("pulse_design.design_s", "s"),
    ("pulse_design.invariant_residual_us", "us"),
    ("pulse_design.to_csv_s", "s"),
    ("pulse_design.from_csv_s", "s"),
    ("pulse_design.self_s", "s"),
    ("dynamics_two_level.propagate_s", "s"),
    ("dynamics_two_level.propagate_nonlinear_s", "s"),
    ("dynamics_two_level.step_us", "us"),
    ("dynamics_two_level.rk4_steps", "count"),
    ("dynamics_two_level.self_s", "s"),
    ("robustness.scan_systematic.linear_point_s", "s"),
    ("robustness.scan_systematic.mean_field_point_s", "s"),
    ("robustness.scan_noise.point_s", "s"),
    ("robustness.bloch_propagate.step_us", "us"),
    ("robustness.stochastic_oracle_s", "s"),
    ("robustness.stochastic_oracle.traj_steps", "count"),
    ("robustness.self_s", "s"),
    ("dynamics_grid.evolve.raman_s", "s"),
    ("dynamics_grid.evolve.so_direction_s", "s"),
    ("dynamics_grid.evolve.mean_field_s", "s"),
    ("dynamics_grid.step_us", "us"),
    ("dynamics_grid.init_basis_state_s", "s"),
    ("dynamics_grid.site_steps", "count"),
    ("dynamics_grid.record_s", "s"),
    ("dynamics_grid.mean_field_extra_s", "s"),
    ("dynamics_grid.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
)

MODULES = ("numerics", "morse", "pulse_design", "dynamics_two_level",
           "dynamics_grid", "robustness")


def _steps(t_f, step):
    return max(1, int(round(t_f / step)))


def _evolve_name(a):
    spec = a["spec"]
    if spec.interacting:
        return "dynamics_grid.evolve.mean_field"
    return f"dynamics_grid.evolve.{spec.scheme}"


def _evolve_work(a):
    t_f = a["t_f"] if a["t_f"] is not None else a["schedule"].t_f
    steps = _steps(t_f, a["dt"])
    return {"steps": steps, "site_steps": steps * a["fld"].grid.points}


def install(tracer, sm):
    """Trace the public functions of every layer the workloads call."""
    fn = tracer.install_function
    fn(sm.numerics, "integrate", "numerics.integrate")
    fn(sm.morse, "matrix_elements", "morse.matrix_elements")
    fn(sm.morse, "overlap_Q", "morse.overlap_Q")
    for name in ("design_scheme1", "design_scheme2", "design_scheme2_interacting"):
        fn(sm.pulse_design, name, "pulse_design.design")
    fn(sm.pulse_design, "invariant_residual", "pulse_design.invariant_residual")
    tracer.install_method(sm.pulse_design.PulseSchedule, "to_csv", "pulse_design.to_csv")
    tracer.install_method(sm.pulse_design.PulseSchedule, "from_csv", "pulse_design.from_csv")
    rk4 = lambda a: {"steps": _steps(a["spec"].t_f, a["settings"].step)}  # noqa: E731
    fn(sm.dynamics_two_level, "propagate", "dynamics_two_level.propagate", rk4)
    fn(sm.dynamics_two_level, "propagate_nonlinear",
       "dynamics_two_level.propagate_nonlinear", rk4)
    fn(sm.robustness, "scan_systematic",
       lambda a: "robustness.scan_systematic."
       + ("mean_field" if a["spec"].interacting else "linear"),
       lambda a: {"points": len(a["lambdas"])})
    fn(sm.robustness, "scan_noise", "robustness.scan_noise",
       lambda a: {"points": len(a["lambdas_prime"])})
    fn(sm.robustness, "bloch_propagate", "robustness.bloch_propagate",
       lambda a: {"steps": _steps(a["spec"].t_f, a["dt"])})
    fn(sm.robustness, "stochastic_oracle", "robustness.stochastic_oracle",
       lambda a: {"traj_steps": a["trajectories"] * _steps(a["spec"].t_f, a["dt"])})
    fn(sm.dynamics_grid, "evolve", _evolve_name, _evolve_work)
    fn(sm.dynamics_grid, "init_basis_state", "dynamics_grid.init_basis_state")


def _per_step_us(spans):
    steps = sum(s.work.get("steps", 0) for s in spans)
    return 1e6 * sum(s.seconds for s in spans) / steps if steps else 0.0


def _per_point_s(spans):
    points = sum(s.work.get("points", 0) for s in spans)
    return sum(s.seconds for s in spans) / points if points else 0.0


def layer_metrics(tracer, extras, traced_wall_s, span_cost_s, span_scale, run_scale):
    """Per-layer metrics of one traced run, keyed by the names in PER_LAYER.

    ``extras`` holds the values measured from outside by extra calls
    (``dynamics_grid.record_s`` and ``dynamics_grid.mean_field_extra_s``),
    already rescaled to the reference speed.  Each span is rescaled by
    ``span_scale(start, end)`` (see refspeed.py), the traced wall time and
    the overhead estimate by ``run_scale``; counts are not rescaled.
    """
    spans = tracer.recorded("setup", "round")
    for s in spans:
        s.scale = span_scale(s.start, s.end)
    window = [s for s in spans if s.phase == "setup" or s.round == 0]

    def named(name, among=spans):
        return [s for s in among if s.name == name]

    def med(name, among=spans, scale=1.0):
        return scale * median(s.seconds for s in named(name, among))

    def total(key, name_prefix):
        return sum(s.work.get(key, 0) for s in window if s.name.startswith(name_prefix))

    me = named("morse.matrix_elements")
    q = named("morse.overlap_Q")
    two_level = named("dynamics_two_level.propagate") + named(
        "dynamics_two_level.propagate_nonlinear")
    evolves = [s for s in spans if s.name.startswith("dynamics_grid.evolve.")]
    out = {
        "numerics.integrate_s": med("numerics.integrate"),
        "numerics.integrate.calls": len(named("numerics.integrate", window)),
        "morse.matrix_elements.cold_s": median(s.seconds for s in me if s.children),
        "morse.matrix_elements.warm_s": median(s.seconds for s in me if not s.children),
        "morse.overlap_Q.cold_s": median(s.seconds for s in q if s.children),
        "pulse_design.design_s": med("pulse_design.design"),
        "pulse_design.invariant_residual_us": med("pulse_design.invariant_residual",
                                                  scale=1e6),
        "pulse_design.to_csv_s": med("pulse_design.to_csv"),
        "pulse_design.from_csv_s": med("pulse_design.from_csv"),
        "dynamics_two_level.propagate_s": med("dynamics_two_level.propagate"),
        "dynamics_two_level.propagate_nonlinear_s":
            med("dynamics_two_level.propagate_nonlinear"),
        "dynamics_two_level.step_us": _per_step_us(two_level),
        "dynamics_two_level.rk4_steps": total("steps", "dynamics_two_level.propagate"),
        "robustness.scan_systematic.linear_point_s":
            _per_point_s(named("robustness.scan_systematic.linear")),
        "robustness.scan_systematic.mean_field_point_s":
            _per_point_s(named("robustness.scan_systematic.mean_field")),
        "robustness.scan_noise.point_s": _per_point_s(named("robustness.scan_noise")),
        "robustness.bloch_propagate.step_us":
            _per_step_us(named("robustness.bloch_propagate")),
        "robustness.stochastic_oracle_s": med("robustness.stochastic_oracle"),
        "robustness.stochastic_oracle.traj_steps":
            total("traj_steps", "robustness.stochastic_oracle"),
        "dynamics_grid.evolve.raman_s": med("dynamics_grid.evolve.raman"),
        "dynamics_grid.evolve.so_direction_s": med("dynamics_grid.evolve.so_direction"),
        "dynamics_grid.evolve.mean_field_s": med("dynamics_grid.evolve.mean_field"),
        "dynamics_grid.step_us": _per_step_us(evolves),
        "dynamics_grid.init_basis_state_s": med("dynamics_grid.init_basis_state"),
        "dynamics_grid.site_steps": total("site_steps", "dynamics_grid.evolve."),
        "trace.spans": len(window),
        "trace.overhead_s": sum(s.phase == "round" for s in window) * span_cost_s * run_scale,
        "trace.wall_s": traced_wall_s * run_scale,
        "dynamics_grid.record_s": extras.get("dynamics_grid.record_s", 0.0),
        "dynamics_grid.mean_field_extra_s": extras.get("dynamics_grid.mean_field_extra_s", 0.0),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sum(s.self_s for s in window
                                      if s.name.split(".", 1)[0] == module)
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
