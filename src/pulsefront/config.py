"""Experiment configuration: flat INI-style files with one level of sections.

Every key has a documented default.  Unknown sections or keys, [run] and
[numerics] keys the scenario never reads and [profile] keys the family never
reads are rejected, so a typo cannot silently fall back to a default.  So are
a non-finite number, a [numerics], [run] or [experiment] value out of its
range, a scenario's family rule, an inline profile key (theta, theta_amp,
a, a_amp) written beside the file (theta_file, a_file) that would override it,
and a [profile] value the family's constructor would refuse (theta +-
|theta_amp| outside (0, 1), a <= |a_amp|, delta or xin_delta outside
(0, 1/2), |xin_delta * xin_lambda| >= 1, a profile file that does not
exist), and a period whose grid would have over MAX_NODES nodes or h^2 overflowing.
A config is judged once, here, before any run: the runners only map parsed
values to runs.  The raw file bytes are hashed into every artifact header:
reruns are byte-identical and artifacts traceable to their configuration.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import profiles, spectral
from .fronts import MAX_HALFWIDTH, Budget, FrontRunConfig


MAX_NODES = 1_000_000       # the most nodes a run's grid may have


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    if not math.isfinite(v := float(s)):
        raise ValueError("must be finite")
    return v


def _parse_floats(s: str) -> tuple:
    return tuple(_parse_float(tok) for tok in s.replace(",", " ").split())


def _parse_optional(s: str):
    return None if s.strip().lower() in ("", "auto", "none") else _parse_float(s)


def _parse_spec(fixed: dict, numbered: tuple):
    """Parser of a case-insensitive `name` or `kind:<number>` to (kind, number,
    text as written); fixed maps each name to its (kind, number)."""
    def parse(s: str) -> tuple:
        name, colon, num = s.strip().lower().partition(":")
        if colon and name in numbered:
            return name, _parse_float(num), s
        if not colon and name in fixed:
            return *fixed[name], s
        raise ValueError("not one of " + " | ".join([*fixed] + [k + ":<v>" for k in numbered]))
    return parse


# key -> (default string, parser, help)
SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "workers": ("1", int, "worker processes for sweeps (1 = bit-reproducible baseline)"),
    },
    "profile": {
        "family": ("cubic", str.lower, "cubic | xin (case-insensitive)"),
        "theta": ("0.3", _parse_float, "intermediate zero level (cubic family)"),
        "theta_amp": ("0.0", _parse_float, "cosine modulation: theta + theta_amp*cos(2 pi y)"),
        "theta_file": ("", str, "two-column (y, theta) file with '# period=1' header"),
        "scale": ("1.0", _parse_float, "reaction amplitude multiplier"),
        "gamma": ("auto", _parse_optional, "stability margin; auto derives a safe value"),
        "delta": ("auto", _parse_optional, "margin width in (0, 1/2); auto derives it"),
        "a": ("1.0", _parse_float, "mean diffusivity"),
        "a_amp": ("0.0", _parse_float, "cosine modulation: a + a_amp*cos(2 pi y)"),
        "a_file": ("", str, "two-column (y, a) file with '# period=1' header"),
        "xin_delta": ("0.2", _parse_float, "asymmetry of the oscillating-diffusivity family"),
        "xin_lambda": ("1.0", _parse_float, "diffusivity oscillation amplitude factor"),
        "xin_mu": ("1.0", _parse_float, "reaction scale mu (enters as mu^2)"),
    },
    "numerics": {
        "L": ("1.0", _parse_float, "spatial period of the instance"),
        "nodes_per_period": ("64", int, "grid nodes per period"),
        "tail_floor": ("1e-3", _parse_float, "depth of the front's slower tail at the window's ends"),
        "budget": ("600.0", _parse_float, "maximum simulated time per run"),
    },
    "run": {
        "L_grid": ("0.5 1.0 2.0", _parse_floats, "periods for scan-e (increasing)"),
        "L_list": ("0.8 0.4 0.2 0.1", _parse_floats, "periods for homogenize (decreasing)"),
        "lambda_grid": ("0 1 2 3 4", _parse_floats, "oscillation amplitudes for quench-scan"),
        "ubar": ("zero", _parse_spec({"zero": ("const", 0.0), "one": ("const", 1.0),
                                      "theta": ("theta", None)}, ("const",)),
                 "linearization state: zero | one | theta | const:<v> (case-insensitive)"),
        "R_list": ("2 4 8 16", _parse_floats, "truncation radii for the eigenvalue trace"),
        "direction": ("right", str, "decay branch: right (state 0) | left (state 1)"),
        "potential": ("margin", str, "decay operator potential: margin | linearized"),
        "c": ("0.0", _parse_float, "frame speed for the decay solve"),
        "datum": ("step", _parse_spec({"step": ("step", None)}, ("shifted", "bump")),
                  "stability datum: step | shifted:<s> | bump:<amp> (case-insensitive)"),
        "spectrum": ("false", _parse_bool, "also compute the period-map spectrum"),
        "seeds": ("", _parse_floats, "extra constant steady-state seeds, each in (0, 1)"),
        "stability_budget": ("150.0", _parse_float, "cap on simulated time for stability "
                             "experiments; each stops sooner once its third difference is "
                             "below FIT_FLOOR"),
    },
    "output": {
        "prefix": ("run", str, "file-name prefix for emitted artifacts"),
    },
}

# the [run] keys each scenario reads, the [numerics] keys of the scenarios that
# run no front (the others read all of them) and the [profile] keys per family
RUN_KEYS = {"front": (), "homogenize": ("L_list",), "eigen": ("ubar", "R_list"),
            "steady": ("seeds",), "scan-e": ("L_grid",),
            "stability": ("datum", "spectrum", "stability_budget"),
            "decay": ("c", "direction", "potential"), "quench-scan": ("lambda_grid",)}
NUMERICS_KEYS = {"eigen": ("L",), "steady": ("L",), "decay": ("L",)}
PROFILE_KEYS = {"cubic": ("family", "theta", "theta_amp", "theta_file", "scale", "gamma",
                          "delta", "a", "a_amp", "a_file"),
                "xin": ("family", "xin_delta", "xin_lambda", "xin_mu")}


@dataclass
class ExperimentConfig:
    scenario: str
    values: dict[str, dict[str, Any]]
    config_hash: str
    raw_text: str

    def __getitem__(self, section: str) -> dict:
        return self.values[section]


SCENARIOS = ("front", "homogenize", "eigen", "steady", "scan-e", "stability",
             "decay", "quench-scan")


def parse_config(text: str, scenario: str) -> ExperimentConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick one of {SCENARIOS}")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    values: dict[str, dict[str, Any]] = {}
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
    for section, keys in SCHEMA.items():
        out: dict[str, Any] = {}
        present = cp[section] if cp.has_section(section) else {}
        for key in present:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for key, (default, parser, _help) in keys.items():
            raw = present.get(key, default)
            try:
                out[key] = parser(raw)
            except Exception as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
        values[section] = out
    family = values["profile"]["family"]
    if family not in PROFILE_KEYS:
        raise ConfigError(f"unknown profile family {family!r}")
    # quench-scan takes the xin amplitude from [run] lambda_grid
    read = RUN_KEYS[scenario] + tuple(k for k in PROFILE_KEYS[family]
                                      if (k, scenario) != ("xin_lambda", "quench-scan"))
    read += NUMERICS_KEYS.get(scenario, tuple(SCHEMA["numerics"]))
    for section in ("run", "profile", "numerics"):
        for key in (cp[section] if cp.has_section(section) else ()):
            if key not in read:
                raise ConfigError(f"[{section}] {key} is not read by scenario {scenario!r}"
                                  f" with profile family {family!r}")
    for key in ("theta", "theta_amp", "a", "a_amp"):
        file_key = key.split("_")[0] + "_file"
        if cp.has_option("profile", key) and values["profile"][file_key]:
            raise ConfigError(f"[profile] {key} and {file_key} are both set; "
                              "the file gives the whole profile")
    num, run, quench = values["numerics"], values["run"], scenario == "quench-scan"
    prof, cubic = values["profile"], family == "cubic"
    delta = prof["xin_delta"]

    def periods(seq, step):   # non-empty, positive, strictly monotone in step's sign
        return bool(seq) and all(L > 0 for L in seq) and \
            all((b - a) * step > 0 for a, b in zip(seq, seq[1:]))
    for section, key, ok, need in (
            ("numerics", "L", num["L"] > 0, "> 0"),
            ("numerics", "budget", num["budget"] > 0, "> 0"),
            ("numerics", "nodes_per_period", num["nodes_per_period"] >= 1, ">= 1"),
            ("numerics", "tail_floor", 0 < num["tail_floor"] < 1, "in (0, 1)"),
            # the profile constructors' rules, for the family's keys
            ("profile", "theta", not cubic or bool(prof["theta_file"]) or (
                0 < prof["theta"] - abs(prof["theta_amp"])
                and prof["theta"] + abs(prof["theta_amp"]) < 1),
             "such that theta +- |theta_amp| lies in (0, 1)"),
            ("profile", "a", not cubic or bool(prof["a_file"]) or prof["a"] - abs(prof["a_amp"]) > 0,
             "greater than |a_amp|"),
            ("profile", "delta", not cubic or prof["delta"] is None or 0 < prof["delta"] < 0.5,
             "in (0, 1/2)"),
            ("profile", "xin_delta", cubic or 0 < delta < 0.5, "in (0, 1/2)"),
            # quench-scan checks lambda_grid in its place
            ("profile", "xin_lambda", cubic or quench or abs(delta * prof["xin_lambda"]) < 1,
             f"such that |xin_delta * xin_lambda| < 1 (xin_delta = {delta!r})"),
            ("profile", "theta_file", not (cubic and prof["theta_file"])
             or os.path.isfile(prof["theta_file"]), "an existing file"),
            ("profile", "a_file", not (cubic and prof["a_file"]) or os.path.isfile(prof["a_file"]),
             "an existing file"),
            ("run", "L_grid", periods(run["L_grid"], 1), "non-empty, > 0, strictly increasing"),
            ("run", "L_list", periods(run["L_list"], -1), "non-empty, > 0, strictly decreasing"),
            # make_xin_example's positivity rule, where lambda_grid is read
            ("run", "lambda_grid", bool(run["lambda_grid"]) and not (quench and any(
                abs(delta * lam) >= 1 for lam in run["lambda_grid"])),
             f"non-empty, each |xin_delta * lambda| < 1 (xin_delta = {delta!r})"),
            ("profile", "family", family == "xin" or not quench, "xin under quench-scan"),
            ("run", "R_list", len(run["R_list"]) >= 2 and all(R > 0 for R in run["R_list"]),
             "at least 2 radii, each > 0"),
            ("run", "stability_budget", run["stability_budget"] > 0, "> 0"),
            ("run", "seeds", all(0 < v < 1 for v in run["seeds"]), "all in (0, 1)"),
            ("run", "direction", run["direction"] in ("right", "left"), "right | left"),
            ("run", "potential", run["potential"] in ("margin", "linearized"),
             "margin | linearized"),
            ("experiment", "workers", values["experiment"]["workers"] >= 1, ">= 1")):
        if not ok:
            raise ConfigError(f"[{section}] {key} = {values[section][key]!r} must be {need}")
    section, key, nodes, h = _largest_grid(scenario, values)
    if nodes > MAX_NODES or not math.isfinite(h * h):   # the stencils divide by h^2
        raise ConfigError(f"[{section}] {key} = {values[section][key]!r} must be such that "
                          f"the run's grid has at most {MAX_NODES:,} nodes and a finite h^2 "
                          f"(it asks for {nodes:.3g} nodes of spacing h = {h:.3g})")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return ExperimentConfig(scenario=scenario, values=values, config_hash=digest,
                            raw_text=text)


def _front_nodes(L: float, npp: int) -> float:
    """The most nodes a front run's window on period L can have: whole periods
    on each side of the cell over a half-extent of at most
    max(MAX_HALFWIDTH, 1.5 L), as fronts.compute_pulsating_front sizes it
    (a float, inf past the float range)."""
    return (2.0 * np.ceil(max(MAX_HALFWIDTH, 1.5 * L) / L) + 1.0) * npp + 1.0


def _largest_grid(scenario: str, values: dict) -> tuple:
    """(section, key, nodes, h): the period key that sizes the scenario's
    largest grid, its node count and largest spacing (0 if none grows with L)."""
    num, run = values["numerics"], values["run"]
    if scenario == "decay":
        try:
            coeff = _diffusivity(values["profile"], num["L"])
        except ValueError as exc:
            raise ConfigError(f"bad diffusivity for [profile]: {exc}") from exc
        try:    # the root and its check on twice the nodes
            npp = spectral.decay_nodes(num["L"], coeff.a_max, coeff.a_min)
        except OverflowError:
            npp = math.inf
        return "numerics", "L", 2.0 * npp, num["L"] / npp
    npp = num["nodes_per_period"]
    if scenario in ("scan-e", "homogenize"):
        key = "L_grid" if scenario == "scan-e" else "L_list"
        return "run", key, max(_front_nodes(L, npp) for L in run[key]), max(run[key]) / npp
    if scenario in ("eigen", "steady"):
        return "numerics", "L", 0, 0.0
    return "numerics", "L", _front_nodes(num["L"], npp), num["L"] / npp


def load_config(path, scenario: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), scenario)


def describe_schema() -> str:
    """Help text: every config key with its default."""
    buf = io.StringIO()
    for section, keys in SCHEMA.items():
        buf.write(f"[{section}]\n")
        for key, (default, _parser, help_text) in keys.items():
            buf.write(f"  {key} = {default!s:<14} {help_text}\n")
        buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# realizing profile blocks
# ---------------------------------------------------------------------------

def _curve(p: dict, key: str):
    if p[key + "_file"]:
        return profiles.TabulatedPeriodicCurve.from_file(p[key + "_file"])
    return profiles.HarmonicCurve(p[key], p[key + "_amp"])


def _diffusivity(p: dict, period: float) -> profiles.CoefficientProfile:
    """The diffusivity that the [profile] block p builds."""
    if p["family"] == "xin":
        return profiles.make_xin_example(p["xin_delta"], p["xin_lambda"], p["xin_mu"],
                                         L=period).coeff
    return profiles.CoefficientProfile.from_curve(_curve(p, "a"))


def build_instance(cfg: ExperimentConfig) -> profiles.ProblemInstance:
    p = cfg["profile"]
    period = float(cfg["numerics"]["L"])
    if p["family"] == "xin":
        return profiles.make_xin_example(p["xin_delta"], p["xin_lambda"], p["xin_mu"],
                                         L=period)
    reaction = profiles.make_cubic(_curve(p, "theta"), gamma=p["gamma"], delta=p["delta"],
                                   scale=p["scale"])
    return profiles.ProblemInstance(coeff=_diffusivity(p, period), reaction=reaction,
                                    L=period)


def build_run_config(cfg: ExperimentConfig):
    n = cfg["numerics"]
    rc = FrontRunConfig(nodes_per_period=n["nodes_per_period"], tail_floor=n["tail_floor"])
    return rc, Budget(n["budget"])
