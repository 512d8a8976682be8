"""Where the traced run wraps pulsefront, and the per-layer metrics it reports.

Every wrapper sits at the name callers use: a function imported by name into
another module is wrapped there as well (for example
pulsefront.homogenize.compute_pulsating_front), and methods are wrapped on
their class.
"""

from __future__ import annotations

import os

from tracing import LAYERS, Tracer

# Row scaling (1 n^2) plus the banded forward/back substitution with n
# right-hand sides (about 7 n^2) per step of the linearized period map.
PERIOD_MAP_FLOPS_PER_NODE2_STEP = 8


def _count_node_steps(tr, args, kwargs, result, dur, run_inside):
    stepper = args[0]
    n_steps = args[3] if len(args) > 3 else kwargs["n_steps"]
    tr.counts["solver.node_steps"] += n_steps * stepper.grid.n
    tr.counts["solver.steps"] += n_steps
    tr.stepper_run_s += dur


def _front_done(tr, args, kwargs, front, dur, run_inside):
    tr.counts["fronts.sim_time"] += float(front.diagnostics.get("t_final", 0.0))
    if not front.stationary:
        tr.counts["fronts.accepted"] += 1


def _front_failed(tr, exc):
    diag = getattr(exc, "diagnostics", None)
    if isinstance(diag, dict):
        tr.counts["fronts.sim_time"] += float(diag.get("t_final", 0.0))


def _power_iters(tr, args, kwargs, pair, dur, run_inside):
    tr.counts["spectral.power_iters"] += pair.iterations


def _period_map(tr, args, kwargs, P, dur, run_inside):
    pots = args[1]
    n = args[2].n
    tr.counts["stability.period_map_flops"] += (
        PERIOD_MAP_FLOPS_PER_NODE2_STEP * len(pots) * n * n)


def _experiment_done(tr, args, kwargs, rep, dur, run_inside):
    tr.counts["stability.experiment_self_s"] += dur - run_inside


def _bytes_written(tr, args, kwargs, result, dur, run_inside):
    tr.counts["runner.bytes_written"] += sum(os.path.getsize(p) for p in result.artifacts)


def install_node_step_counter(tracer: Tracer, solver):
    """The only probe of an untraced pass: one counter on Stepper.run, whose
    calls number in the hundreds per pass (one per advance or capture)."""
    orig = solver.Stepper.__dict__["run"]

    def run(self, u, t0, n_steps, *args, **kwargs):
        tracer.counts["solver.node_steps"] += n_steps * self.grid.n
        return orig(self, u, t0, n_steps, *args, **kwargs)

    tracer.patch(solver.Stepper, "run", run)


def install_layer_probes(tracer: Tracer, pf) -> None:
    """Wrap the public functions of every layer; pf maps module names to
    the imported pulsefront modules."""
    config, runner, profiles, solver = pf["config"], pf["runner"], pf["profiles"], pf["solver"]
    fronts, homogenize, spectral, stability = (pf["fronts"], pf["homogenize"],
                                               pf["spectral"], pf["stability"])
    numpy_linalg = pf["numpy_linalg"]
    w = tracer.wrap
    # setup: configuration and instance construction
    for owner in (config, runner):
        w(owner, "build_instance", "setup.build_instance")
        w(owner, "build_run_config", "setup.build_run_config")
    w(config, "parse_config", "setup.parse_config")
    # runner
    w(runner, "run_scenario", "runner.run_scenario", on_return=_bytes_written)
    for name in ("emit_profile", "emit_csv", "emit_sup_errors"):
        w(runner, name, f"runner.{name}")
    # profiles
    for owner in (profiles, fronts):
        w(owner, "homogenized_data", "profiles.homogenized_data")
    for name in ("make_cubic", "fbar_and_integral", "harmonic_mean", "corrector_chi"):
        w(profiles, name, f"profiles.{name}")
    # solver
    w(solver.Stepper, "run", "solver.Stepper.run", on_return=_count_node_steps)
    w(solver.Stepper, "reaction_at", "solver.Stepper.reaction_at")
    w(solver, "solve_banded", "solver.solve_banded")
    w(fronts, "residual_stationary", "solver.residual_stationary")
    # fronts
    for owner in (fronts, homogenize):
        w(owner, "compute_pulsating_front", "fronts.compute_pulsating_front",
          on_return=_front_done, on_raise=_front_failed)
    w(fronts, "classify_quenching", "fronts.classify_quenching")
    for owner in (fronts, stability):
        w(owner, "level_position", "fronts.level_position")
    w(fronts, "min_shift_defect", "fronts.min_shift_defect")
    w(fronts.SnapshotSeries, "shift_defect", "fronts.SnapshotSeries.shift_defect")
    w(fronts, "extract_profile", "fronts.extract_profile")
    w(fronts, "measure_speed", "fronts.measure_speed")
    w(fronts.FrontSolution, "interp", "fronts.FrontSolution.interp")
    # homogenize
    w(homogenize, "homogenization_sweep", "homogenize.homogenization_sweep")
    w(homogenize, "solve_homogenized_front", "homogenize.solve_homogenized_front")
    w(homogenize, "solve_ivp", "homogenize.solve_ivp")
    w(homogenize, "align_profiles", "homogenize.align_profiles")
    golden = homogenize._golden_min

    def counted_golden(f, *args, **kwargs):
        def g(s):
            tracer.counts["homogenize.align_evals"] += 1
            return f(s)
        return golden(g, *args, **kwargs)

    tracer.patch(homogenize, "_golden_min", counted_golden)
    # spectral
    for name in ("dirichlet_principal_eigen", "periodic_principal_eigen"):
        w(spectral, name, f"spectral.{name}", on_return=_power_iters)
    for name in ("stability_limit", "find_periodic_steady_states", "decay_root_mu",
                 "decay_eigenvalue", "_newton_periodic"):
        w(spectral, name, f"spectral.{name}")
    # stability
    w(stability, "global_stability_experiment", "stability.global_stability_experiment",
      on_return=_experiment_done)
    w(stability, "poincare_spectrum", "stability.poincare_spectrum")
    w(stability, "linearized_period_map", "stability.linearized_period_map",
      on_return=_period_map)
    w(stability, "solve_banded", "stability.solve_banded")
    w(numpy_linalg, "eig", "stability.eig")


def _per(x, passes):
    return x / passes if passes else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, keyed by name, as (value, unit)."""
    t = tr.time_of
    c = tr.counts
    m: dict[str, tuple[float, str]] = {}
    selfs = tr.layer_self()
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = (_per(selfs.get(layer, 0.0), passes), "s")
    node_steps = c["solver.node_steps"]
    windows = tr.calls_of("fronts.min_shift_defect")
    m.update({
        "solver.node_steps": (_per(node_steps, passes), "count"),
        "solver.steps": (_per(c["solver.steps"], passes), "count"),
        "solver.ns_per_node_step": (1e9 * selfs.get("solver", 0.0) / node_steps
                                    if node_steps else 0.0, "ns"),
        "solver.reaction_s": (_per(t("solver.Stepper.reaction_at"), passes), "s"),
        "solver.tridiag_s": (_per(t("solver.solve_banded"), passes), "s"),
        "profiles.homogenized_data_s": (_per(t("profiles.homogenized_data"), passes), "s"),
        "fronts.level_track_s": (_per(t("fronts.level_position"), passes), "s"),
        "fronts.level_track_calls": (_per(tr.calls_of("fronts.level_position"), passes), "count"),
        "fronts.windows": (_per(windows, passes), "count"),
        "fronts.window_yield": (c["fronts.accepted"] / windows if windows else 0.0, "ratio"),
        "fronts.defect_evals": (_per(tr.calls_of("fronts.SnapshotSeries.shift_defect"), passes),
                                "count"),
        "fronts.period_match_s": (_per(t("fronts.min_shift_defect"), passes), "s"),
        "fronts.extract_s": (_per(t("fronts.extract_profile"), passes), "s"),
        "fronts.sim_time": (_per(c["fronts.sim_time"], passes), "t"),
        "homogenize.shoot_s": (_per(t("homogenize.solve_ivp"), passes), "s"),
        "homogenize.shoot_integrations": (_per(tr.calls_of("homogenize.solve_ivp"), passes),
                                          "count"),
        "homogenize.align_s": (_per(t("homogenize.align_profiles"), passes), "s"),
        "homogenize.align_evals": (_per(c["homogenize.align_evals"], passes), "count"),
        "spectral.eigen_s": (_per(t("spectral.dirichlet_principal_eigen")
                                  + t("spectral.periodic_principal_eigen"), passes), "s"),
        "spectral.power_iters": (_per(c["spectral.power_iters"], passes), "count"),
        "spectral.newton_s": (_per(t("spectral._newton_periodic"), passes), "s"),
        "spectral.decay_root_s": (_per(t("spectral.decay_root_mu"), passes), "s"),
        "stability.experiment_self_s": (_per(c["stability.experiment_self_s"], passes), "s"),
        "stability.reference_evals": (_per(tr.calls_of("fronts.FrontSolution.interp"), passes),
                                      "count"),
        "stability.period_map_s": (_per(t("stability.linearized_period_map"), passes), "s"),
        "stability.eig_s": (_per(t("stability.eig"), passes), "s"),
        "stability.period_map_flops_computed": (_per(c["stability.period_map_flops"], passes),
                                                "flop"),
        "runner.emit_s": (_per(sum(t(f"runner.{n}") for n in
                                   ("emit_profile", "emit_csv", "emit_sup_errors")), passes), "s"),
        "runner.bytes_written": (_per(c["runner.bytes_written"], passes), "B"),
    })
    return m
