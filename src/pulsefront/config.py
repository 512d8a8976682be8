"""Experiment configuration: flat INI-style files with one level of sections.

Every key has a documented default; unknown sections or keys are rejected so
a typo cannot silently fall back to a default.  The raw file bytes are hashed
and the hash is embedded in every artifact header, which makes reruns
byte-identical and artifacts traceable to their configuration.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass
from typing import Any

from . import profiles


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def _parse_optional(s: str):
    return None if s.strip().lower() in ("", "auto", "none") else float(s)


# key -> (default string, parser, help)
SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "workers": ("1", int, "worker processes for sweeps (1 = bit-reproducible baseline)"),
    },
    "profile": {
        "family": ("cubic", str, "cubic | xin | tabulated"),
        "theta": ("0.3", float, "intermediate zero level (cubic family)"),
        "theta_amp": ("0.0", float, "cosine modulation: theta + theta_amp*cos(2 pi y)"),
        "theta_file": ("", str, "two-column (y, theta) file with '# period=1' header"),
        "scale": ("1.0", float, "reaction amplitude multiplier"),
        "gamma": ("auto", _parse_optional, "stability margin; auto derives a safe value"),
        "delta": ("auto", _parse_optional, "margin width in (0, 1/2); auto derives it"),
        "a": ("1.0", float, "mean diffusivity"),
        "a_amp": ("0.0", float, "cosine modulation: a + a_amp*cos(2 pi y)"),
        "a_file": ("", str, "two-column (y, a) file with '# period=1' header"),
        "xin_delta": ("0.2", float, "asymmetry of the oscillating-diffusivity family"),
        "xin_lambda": ("1.0", float, "diffusivity oscillation amplitude factor"),
        "xin_mu": ("1.0", float, "reaction scale mu (enters as mu^2)"),
    },
    "numerics": {
        "L": ("1.0", float, "spatial period of the instance"),
        "nodes_per_period": ("64", int, "grid nodes per period"),
        "dt": ("auto", _parse_optional, "time step; auto derives it from stability/accuracy"),
        "halfwidth": ("auto", _parse_optional, "domain half-extent; auto sizes it from decay rates"),
        "tail_floor": ("1e-8", float, "target tail depth of extracted profiles"),
        "tol_puls": ("1e-3", float, "acceptance tolerance on the pulsating defect"),
        "budget": ("600.0", float, "maximum simulated time per run"),
    },
    "run": {
        "L_grid": ("0.5 1.0 2.0", _parse_floats, "periods for scan-e (increasing)"),
        "L_list": ("0.8 0.4 0.2 0.1", _parse_floats, "periods for homogenize (decreasing)"),
        "lambda_grid": ("0 1 2 3 4", _parse_floats, "oscillation amplitudes for quench-scan"),
        "ubar": ("zero", str, "linearization state: zero | one | theta | const:<v>"),
        "R_list": ("2 4 8 16", _parse_floats, "truncation radii for the eigenvalue trace"),
        "direction": ("right", str, "decay branch: right (state 0) | left (state 1)"),
        "potential": ("margin", str, "decay operator potential: margin | linearized"),
        "c": ("0.0", float, "frame speed for the decay solve"),
        "datum": ("step", str, "stability datum: step | shifted:<s> | bump:<amp>"),
        "spectrum": ("false", _parse_bool, "also compute the period-map spectrum"),
        "spectrum_nodes": ("400", int, "node cap for the dense linearization"),
        "seeds": ("", str, "extra constant seeds for the steady-state search"),
        "stability_budget": ("150.0", float, "simulated time for stability experiments"),
    },
    "output": {
        "prefix": ("run", str, "file-name prefix for emitted artifacts"),
    },
}


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
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
        values[section] = out
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return ExperimentConfig(scenario=scenario, values=values, config_hash=digest,
                            raw_text=text)


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

def build_instance(cfg: ExperimentConfig) -> profiles.ProblemInstance:
    p = cfg["profile"]
    period = float(cfg["numerics"]["L"])
    family = p["family"].lower()
    if family == "xin":
        return profiles.make_xin_example(p["xin_delta"], p["xin_lambda"], p["xin_mu"],
                                         L=period)
    if family in ("cubic", "tabulated"):
        if p["theta_file"]:
            theta = profiles.TabulatedPeriodicCurve.from_file(p["theta_file"])
        elif p["theta_amp"] != 0.0:
            theta = profiles.CosineCurve(p["theta"], p["theta_amp"])
        else:
            theta = profiles.ConstantCurve(p["theta"])
        reaction = profiles.make_cubic(theta, gamma=p["gamma"], delta=p["delta"],
                                       scale=p["scale"])
        if p["a_file"]:
            curve = profiles.TabulatedPeriodicCurve.from_file(p["a_file"])
        elif p["a_amp"] != 0.0:
            curve = profiles.CosineCurve(p["a"], p["a_amp"])
        else:
            curve = profiles.ConstantCurve(p["a"])
        coeff = profiles.CoefficientProfile.from_curve(curve)
        return profiles.ProblemInstance(coeff=coeff, reaction=reaction, L=period)
    raise ConfigError(f"unknown profile family {family!r}")


def build_run_config(cfg: ExperimentConfig):
    from .fronts import Budget, FrontRunConfig
    n = cfg["numerics"]
    rc = FrontRunConfig(nodes_per_period=n["nodes_per_period"],
                        tail_floor=n["tail_floor"], halfwidth=n["halfwidth"],
                        dt=n["dt"], tol_puls=n["tol_puls"])
    return rc, Budget(n["budget"])
