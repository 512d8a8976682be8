"""Scenario drivers: dispatch a parsed configuration, write artifacts, and
print one summary line per record.

All files are gnu-plottable whitespace or comma separated text with '#'
headers carrying units and the configuration hash, so every emitted number
traces back to the run that produced it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, build_instance, build_run_config
from . import fronts as fr
from . import homogenize as hg
from . import spectral as spx
from . import stability as st


@dataclass
class RunResult:
    summary_lines: list
    artifacts: list
    failures: list


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.10g}"


def _header(cfg: ExperimentConfig, extra: str = "") -> str:
    base = f"# pulsefront {__version__} config={cfg.config_hash} scenario={cfg.scenario}"
    return base + ((" " + extra) if extra else "")


def _write(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def emit_profile(path, front: fr.FrontSolution, cfg: ExperimentConfig):
    head = [_header(cfg, f"c={_fmt(front.speed)} L={_fmt(front.diagnostics.get('L'))}"),
            "# xi y phi"]
    xis = [f"{xi:.10g} " for xi in front.xi.tolist()]
    ys = [f"{y:.10g} " for y in front.y.tolist()]
    # rows are streamed to the file, one lattice row of phi at a time
    rows = (xi + y + p for xi, row in zip(xis, front.phi)
            for y, p in zip(ys, map("{:.10g}".format, row.tolist())))
    _write(path, itertools.chain(head, rows))


def emit_sup_errors(path, report: st.StabilityReport, cfg: ExperimentConfig):
    lines = [_header(cfg, "columns: t sup_error")]
    for t, e in report.sup_errors:
        lines.append(f"{t:.10g} {e:.10g}")
    _write(path, lines)


def emit_csv(path, header_cols: str, rows, cfg: ExperimentConfig):
    _write(path, [_header(cfg), header_cols] + list(rows))


def _report_json(report: st.StabilityReport) -> dict:
    def safe(x):
        if isinstance(x, float) and not math.isfinite(x):
            return repr(x)
        return x
    return {
        "tau_g": safe(report.tau_g),
        "mu_fit": safe(report.mu_fit),
        "accepted": report.accepted,
        "final_error": safe(report.final_error),
        "sup_errors": [[t, e] for t, e in report.sup_errors],
        "spectrum": [[float(np.real(v)), float(np.imag(v))] for v in report.spectrum],
        "diagnostics": {k: safe(v) for k, v in report.diagnostics.items()
                        if isinstance(v, (int, float, str, bool))},
    }


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _run_front(cfg, out):
    inst = build_instance(cfg)
    rc, budget = build_run_config(cfg)
    rec = fr.classify_quenching(inst, rc, budget)
    prefix = os.path.join(out, cfg["output"]["prefix"])
    rows = [fr.SweepPoint(L=inst.L, record=rec).csv_row()]
    emit_csv(prefix + "_front.csv", fr.SWEEP_CSV_HEADER, rows, cfg)
    arts = [prefix + "_front.csv"]
    line = f"front: L={_fmt(inst.L)} {rec.kind}"
    failures = []
    if rec.front is not None:
        emit_profile(prefix + "_profile.txt", rec.front, cfg)
        arts.append(prefix + "_profile.txt")
        line += (f" c={_fmt(rec.c)} defect={_fmt(rec.front.pulsating_error)}"
                 f" mu1={_fmt(rec.front.mu1_fit)} mu2={_fmt(rec.front.mu2_fit)}")
    else:
        failures.append(f"front inconclusive: {rec.evidence}")
    return RunResult([line], arts, failures)


def _run_homogenize(cfg, out):
    inst = build_instance(cfg)
    rc, budget = build_run_config(cfg)
    L_list = cfg["run"]["L_list"]
    records, front0 = hg.homogenization_sweep(inst.coeff, inst.reaction, L_list,
                                              rc, budget)
    prefix = os.path.join(out, cfg["output"]["prefix"])
    rows, lines, failures = [], [], []
    lines.append(f"homogenize: c0={_fmt(front0.c0)} lambda1={_fmt(front0.lambda1)}"
                 f" lambda2={_fmt(front0.lambda2)}")
    for rec in records:
        if isinstance(rec, tuple):
            L, exc = rec
            failures.append(f"L={_fmt(L)}: {exc}")
            continue
        rows.append(rec.csv_row())
        lines.append(f"  L={_fmt(rec.L)} c_L={_fmt(rec.c_L)} gap={_fmt(rec.c_gap_rel)}"
                     f" profile_gap={_fmt(rec.profile_gap)}")
    emit_csv(prefix + "_homogenize.csv", hg.HOMOG_CSV_HEADER, rows, cfg)
    lines0 = [_header(cfg, f"c={_fmt(front0.c0)} columns: xi phi0")]
    lines0 += [f"{x:.10g} {p:.10g}" for x, p in zip(front0.xi, front0.phi)]
    _write(prefix + "_phi0.txt", lines0)
    return RunResult(lines, [prefix + "_homogenize.csv", prefix + "_phi0.txt"], failures)


def _ubar_of(cfg, inst):
    spec = cfg["run"]["ubar"].strip().lower()
    if spec == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if spec == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if spec == "theta":
        return lambda x: np.asarray(inst.theta_L(x), dtype=float)
    if spec.startswith("const:"):
        v = float(spec.split(":", 1)[1])
        return lambda x: np.full_like(np.asarray(x, dtype=float), v)
    raise ConfigError(f"unknown ubar spec {spec!r}")


def _run_eigen(cfg, out):
    inst = build_instance(cfg)
    ubar = _ubar_of(cfg, inst)
    R_list = cfg["run"]["R_list"]
    lim = spx.stability_limit(inst, ubar, R_list)
    prefix = os.path.join(out, cfg["output"]["prefix"])
    rows = [f"{r:.10g},{l:.10g}" for r, l in zip(lim.R_list, lim.lambdas)]
    emit_csv(prefix + "_eigen.csv", "R,lambda_1R", rows, cfg)
    line = (f"eigen: ubar={cfg['run']['ubar']} trace=[{', '.join(_fmt(l) for l in lim.lambdas)}]"
            f" lambda1={_fmt(lim.periodic_value)} class={lim.cls}")
    return RunResult([line], [prefix + "_eigen.csv"], [])


def _run_steady(cfg, out):
    inst = build_instance(cfg)
    seeds = [float(s) for s in cfg["run"]["seeds"].split()] if cfg["run"]["seeds"] else None
    states = spx.find_periodic_steady_states(inst, seeds=seeds)
    prefix = os.path.join(out, cfg["output"]["prefix"])
    arts, lines = [], []
    for k, s in enumerate(states):
        path = f"{prefix}_steady_{k}.txt"
        slines = [_header(cfg, f"L={_fmt(inst.L)} lambda1={_fmt(s.lambda1)} class={s.cls}")]
        slines += [f"{x:.10g} {u:.10g}" for x, u in zip(s.x, s.u)]
        _write(path, slines)
        arts.append(path)
        lines.append(f"steady[{k}]: mean={_fmt(float(np.mean(s.u)))}"
                     f" lambda1={_fmt(s.lambda1)} class={s.cls} residual={_fmt(s.residual)}")
    if not states:
        lines.append("steady: no intermediate periodic steady states found")
    return RunResult(lines, arts, [])


def _run_scan_e(cfg, out):
    inst = build_instance(cfg)
    rc, budget = build_run_config(cfg)
    pts = fr.scan_E(inst.coeff, inst.reaction, cfg["run"]["L_grid"], rc, budget,
                    workers=cfg["experiment"]["workers"])
    prefix = os.path.join(out, cfg["output"]["prefix"])
    emit_csv(prefix + "_scan.csv", fr.SWEEP_CSV_HEADER, [p.csv_row() for p in pts], cfg)
    lines = [f"scan-e: L={_fmt(p.L)} {p.record.kind} c={_fmt(p.record.c)}" for p in pts]
    failures = [f"L={_fmt(p.L)} inconclusive" for p in pts
                if p.record.kind == fr.INCONCLUSIVE]
    return RunResult(lines, [prefix + "_scan.csv"], failures)


def _run_quench_scan(cfg, out):
    p = cfg["profile"]
    if p["family"].lower() != "xin":
        raise ConfigError("quench-scan needs the xin profile family")
    rc, budget = build_run_config(cfg)
    delta, mu = p["xin_delta"], p["xin_mu"]
    lams = sorted(cfg["run"]["lambda_grid"])
    rows, lines, failures = [], [], []
    speeds, recs = [], []
    from .profiles import make_xin_example
    for lam in lams:
        inst = make_xin_example(delta, lam, mu, L=cfg["numerics"]["L"])
        rec = fr.classify_quenching(inst, rc, budget)
        recs.append(rec)
        c_level = rec.evidence.get("c_level", math.nan)
        unc = rec.evidence.get("uncertainty", math.nan)
        defect = rec.front.pulsating_error if rec.front is not None else math.nan
        resid = rec.evidence.get("stationary_residual", math.nan)
        rows.append(f"{lam:.10g},{rec.kind},{_fmt(c_level)},"
                    f"{_fmt(rec.c if rec.c is not None else math.nan)},{_fmt(unc)},"
                    f"{_fmt(defect)},{_fmt(resid)}")
        lines.append(f"quench: lambda={_fmt(lam)} {rec.kind} c={_fmt(rec.c)}")
        if rec.kind == fr.INCONCLUSIVE:
            failures.append(f"lambda={_fmt(lam)} inconclusive")
            speeds.append(None)
        else:
            speeds.append(abs(rec.c))
    known = [s for s in speeds if s is not None]
    monotone = all(b <= a + 1e-3 * max(known) for a, b in zip(known, known[1:])) \
        if len(known) > 1 else True
    lines.append(f"quench: |c| non-increasing along lambda: {monotone}")
    pinned = [f"{lam:.10g}" for (lam, rec) in zip(lams, recs)
              if rec.kind == fr.STATIONARY
              or (rec.kind == fr.INCONCLUSIVE
                  and rec.evidence.get("displacement", math.inf) < 1.0)]
    lines.append("quench: pinning evidence at lambda = "
                 + (", ".join(pinned) if pinned else "none"))
    prefix = os.path.join(out, cfg["output"]["prefix"])
    emit_csv(prefix + "_quench.csv",
             "lambda,classification,c_level,c_period,uncertainty,"
             "pulsating_defect,stationary_residual", rows, cfg)
    return RunResult(lines, [prefix + "_quench.csv"], failures)


def _run_stability(cfg, out):
    inst = build_instance(cfg)
    rc, budget = build_run_config(cfg)
    front = fr.compute_pulsating_front(inst, rc, budget)
    datum_spec = cfg["run"]["datum"].strip().lower()
    L = inst.L
    if datum_spec == "step":
        datum = lambda x: np.where(x < 0.0, 1.0, 0.0)
    elif datum_spec.startswith("shifted:"):
        s = float(datum_spec.split(":", 1)[1])
        datum = lambda x: front.interp(x - s, x / L)
    elif datum_spec.startswith("bump:"):
        amp = float(datum_spec.split(":", 1)[1])
        datum = lambda x: np.clip(front.interp(x, x / L)
                                  + amp * np.exp(-(x / 2.0) ** 2), 0.0, 1.0)
    else:
        raise ConfigError(f"unknown datum spec {datum_spec!r}")
    rep = st.global_stability_experiment(inst, front, datum,
                                         fr.Budget(cfg["run"]["stability_budget"]))
    if cfg["run"]["spectrum"]:
        spec = st.poincare_spectrum(inst, front,
                                    n_nodes=cfg["run"]["spectrum_nodes"])
        rep = st.StabilityReport(tau_g=rep.tau_g, mu_fit=rep.mu_fit,
                                 accepted=rep.accepted, sup_errors=rep.sup_errors,
                                 final_error=rep.final_error,
                                 diagnostics=rep.diagnostics,
                                 spectrum=tuple(spec.eigenvalues))
    prefix = os.path.join(out, cfg["output"]["prefix"])
    with open(prefix + "_stability.json", "w") as fh:
        json.dump(_report_json(rep), fh, indent=1)
    emit_sup_errors(prefix + "_sup_errors.txt", rep, cfg)
    line = (f"stability: accepted={rep.accepted} tau_g={_fmt(rep.tau_g)}"
            f" mu_fit={_fmt(rep.mu_fit)} final_error={_fmt(rep.final_error)}")
    failures = [] if rep.accepted else ["stability experiment not accepted"]
    return RunResult([line], [prefix + "_stability.json",
                              prefix + "_sup_errors.txt"], failures)


def _run_decay(cfg, out):
    inst = build_instance(cfg)
    r = cfg["run"]
    mu = spx.decay_root_mu(inst, r["c"], r["direction"], r["potential"])
    prefix = os.path.join(out, cfg["output"]["prefix"])
    _write(prefix + "_decay.txt",
           [_header(cfg, f"direction={r['direction']} potential={r['potential']}"
                    f" c={_fmt(r['c'])}"),
            f"mu {_fmt(mu)}"])
    return RunResult([f"decay: direction={r['direction']} mu={_fmt(mu)}"],
                     [prefix + "_decay.txt"], [])


_SCENARIO_RUNNERS = {
    "front": _run_front,
    "homogenize": _run_homogenize,
    "eigen": _run_eigen,
    "steady": _run_steady,
    "scan-e": _run_scan_e,
    "stability": _run_stability,
    "decay": _run_decay,
    "quench-scan": _run_quench_scan,
}


def run_scenario(cfg: ExperimentConfig, out_dir: str) -> RunResult:
    """Dispatch to the scenario pipeline; artifacts land in out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    runner = _SCENARIO_RUNNERS[cfg.scenario]
    return runner(cfg, out_dir)
