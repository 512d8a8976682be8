import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pulsefront import cli, runner
from pulsefront import fronts as fr
from pulsefront.config import (SCENARIOS, SCHEMA, ConfigError, build_instance,
                               describe_schema, load_config, parse_config)
from pulsefront.profiles import TabulatedPeriodicCurve

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


FRONT_CFG = """
[profile]
family = cubic
theta = 0.3

[numerics]
L = 1.0
budget = 300
"""

# the instance alone: the scenarios that run no front read only L from [numerics]
INSTANCE_CFG = """
[profile]
family = cubic
theta = 0.3

[numerics]
L = 1.0
"""

EIGEN_CFG = """
[profile]
family = cubic
theta = 0.3

[numerics]
L = 1.0

[run]
ubar = zero
R_list = 2 4 8
"""


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config(FRONT_CFG, "front")
        assert cfg["numerics"]["nodes_per_period"] == 64
        assert cfg["experiment"]["workers"] == 1
        assert cfg["numerics"]["tail_floor"] == 1e-3

    def test_numerics_keys(self):
        assert list(SCHEMA["numerics"]) == ["L", "nodes_per_period", "tail_floor",
                                            "budget"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(FRONT_CFG + "typo_key = 3\n", "front")

    # keys for values that are module constants (the quadrature size, the
    # stationary tolerance and window), read by no solve (a [run] node count,
    # the seed-free pipeline's deterministic flag) or retired overrides (the
    # front run's step and domain are always derived) are unknown keys
    @pytest.mark.parametrize("section,key,value", [
        pytest.param("numerics", "quad_n", "512", id="numerics-quad_n"),
        pytest.param("run", "n_nodes", "512", id="run-n_nodes"),
        pytest.param("numerics", "tol_stat", "1e-6", id="numerics-tol_stat"),
        pytest.param("numerics", "stat_window", "100.0", id="numerics-stat_window"),
        pytest.param("experiment", "deterministic", "true", id="experiment-deterministic"),
        pytest.param("run", "spectrum_nodes", "400", id="run-spectrum_nodes"),
        pytest.param("numerics", "dt", "0.01", id="numerics-dt"),
        pytest.param("numerics", "halfwidth", "20", id="numerics-halfwidth"),
        pytest.param("numerics", "tol_puls", "1e-5", id="numerics-tol_puls"),
    ])
    def test_unread_quad_n_key_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[{section}]\n{key} = {value}\n", "front")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(FRONT_CFG + "\n[mystery]\nx = 1\n", "front")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(FRONT_CFG, "explode")

    def test_deterministic_flag_pinned(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\ndeterministic = false\n", "front")

    def test_hash_tracks_text(self):
        a = parse_config(FRONT_CFG, "front")
        b = parse_config(FRONT_CFG + "# comment\n", "front")
        assert a.config_hash != b.config_hash

    def test_schema_docs_cover_all_keys(self):
        doc = describe_schema()
        for key in ("nodes_per_period", "tail_floor", "lambda_grid", "ubar", "prefix"):
            assert key in doc

    # a key that the scenario's runner or the chosen family never reads is
    # rejected, and the error names the key and the scenario or family
    @pytest.mark.parametrize("scenario,text,key,owner", [
        pytest.param("front", "[run]\nL_list = 1\n", "L_list", "front", id="front-L_list"),
        pytest.param("eigen", "[run]\ndatum = step\n", "datum", "eigen", id="eigen-datum"),
        pytest.param("homogenize", "[run]\nL_grid = 0.5 1\n", "L_grid", "homogenize",
                     id="homogenize-L_grid"),
        pytest.param("stability", "[run]\nc = 0.1\n", "c", "stability", id="stability-c"),
        pytest.param("front", "[profile]\nfamily = xin\ntheta = 0.4\n", "theta", "xin",
                     id="xin-theta"),
        pytest.param("front", "[profile]\nfamily = cubic\nxin_mu = 2.0\n", "xin_mu", "cubic",
                     id="cubic-xin_mu"),
        pytest.param("quench-scan", "[profile]\nfamily = xin\nxin_lambda = 2.0\n",
                     "xin_lambda", "quench-scan", id="quench-scan-xin_lambda"),
    ])
    def test_unread_key_rejected(self, scenario, text, key, owner):
        with pytest.raises(ConfigError, match=rf"\] {key} is not read by .*'{owner}'"):
            parse_config(text, scenario)

    # eigen, steady and decay build the instance and run no front, so every
    # [numerics] key but L is unread there
    @pytest.mark.parametrize("scenario,key,value", [
        ("eigen", "budget", "300"),
        ("eigen", "nodes_per_period", "3"),
        ("steady", "budget", "300"),
        ("steady", "tail_floor", "1e-6"),
        ("decay", "tail_floor", "1e-6"),
    ])
    def test_unread_numerics_key_rejected(self, scenario, key, value):
        with pytest.raises(ConfigError,
                           match=rf"\[numerics\] {key} is not read by scenario '{scenario}'"):
            parse_config(f"{INSTANCE_CFG}{key} = {value}\n", scenario)

    def test_tabulated_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile family 'tabulated'"):
            parse_config("[profile]\nfamily = tabulated\ntheta = 0.3\n", "front")

    # every [run] key its runner reads, and [experiment] workers everywhere
    @pytest.mark.parametrize("scenario,run", [
        ("front", ""),
        ("homogenize", "L_list = 0.8 0.4"),
        ("eigen", "ubar = zero\nR_list = 2 4"),
        ("steady", "seeds = 0.5"),
        ("scan-e", "L_grid = 0.5 1"),
        ("stability", "datum = step\nspectrum = true\nstability_budget = 60"),
        ("decay", "c = 0.1\ndirection = left\npotential = linearized"),
        ("quench-scan", "lambda_grid = 0 1"),
    ])
    def test_read_keys_accepted(self, scenario, run):
        family = "xin\nxin_delta = 0.2\nxin_mu = 0.3" if scenario == "quench-scan" \
            else "cubic\ntheta = 0.3\nscale = 2.0\na_amp = 0.5"
        cfg = parse_config(f"[profile]\nfamily = {family}\n[experiment]\nworkers = 2\n"
                           f"[run]\n{run}\n", scenario)
        assert cfg["experiment"]["workers"] == 2

    def test_readme_configs_parse(self):
        with open(os.path.join(REPO, "README.md")) as fh:
            cmds = re.findall(r"pulsefront ([\w-]+)\s+--config (\S+)", fh.read())
        assert len(cmds) == len(SCENARIOS)
        for scenario, path in cmds:
            load_config(os.path.join(REPO, path), scenario)


    # a file gives the whole profile, so an inline key written beside it used
    # to be ignored (theta = 0.45 read theta(0) = 0.3 from the file); an empty
    # file key names no file and leaves the inline key in force
    @pytest.mark.parametrize("key,value,file_key", [
        ("theta", "0.45", "theta_file"), ("theta_amp", "0.1", "theta_file"),
        ("a", "2.0", "a_file"), ("a_amp", "0.5", "a_file"),
    ])
    def test_inline_key_beside_file_rejected(self, tmp_path, key, value, file_key):
        table = tmp_path / "curve.txt"
        table.write_text("# period=1\n0.0 0.3\n0.5 0.3\n")
        text = f"[profile]\nfamily = cubic\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"\] {key} and {file_key} are both set"):
            parse_config(text + f"{file_key} = {table}\n", "front")
        assert parse_config(text + f"{file_key} =\n", "front")["profile"][key] == float(value)


class TestBuildInstance:
    XIN_CFG = "[profile]\nfamily = xin\nxin_delta = 0.2\n"

    def test_xin_honours_numerics_L(self):
        cfg = parse_config(self.XIN_CFG + "[numerics]\nL = 3.0\n", "front")
        inst = build_instance(cfg)
        assert inst.L == 3.0
        assert inst.a_L(0.75) == pytest.approx(1.0 + 0.2 * np.sin(0.5 * np.pi))

    def test_xin_default_L(self):
        assert build_instance(parse_config(self.XIN_CFG, "front")).L == 1.0

    # the inline and the tabulated forms of theta and a, each against the
    # curve it names
    def test_amplitude_keys(self):
        cfg = parse_config("[profile]\ntheta = 0.35\ntheta_amp = 0.1\na = 2.0\na_amp = 0.5\n",
                           "front")
        inst = build_instance(cfg)
        y = np.linspace(-1.0, 2.0, 97)
        assert inst.reaction.theta(y).tobytes() == (0.35 + 0.1 * np.cos(2.0 * np.pi * y)).tobytes()
        assert inst.coeff.a(y).tobytes() == (2.0 + 0.5 * np.cos(2.0 * np.pi * y)).tobytes()

    def test_file_keys(self, tmp_path):
        theta_path, a_path = tmp_path / "theta.txt", tmp_path / "a.txt"
        theta_path.write_text("# period=1\n0.0 0.3\n0.25 0.4\n0.5 0.3\n0.75 0.2\n")
        a_path.write_text("# period=1\n0.0 1.0\n0.25 1.5\n0.5 2.0\n0.75 1.5\n")
        cfg = parse_config(f"[profile]\ntheta_file = {theta_path}\na_file = {a_path}\n", "front")
        inst = build_instance(cfg)
        y = np.linspace(-1.0, 2.0, 97)
        for got, path in ((inst.reaction.theta, theta_path), (inst.coeff.a, a_path)):
            want = TabulatedPeriodicCurve.from_file(path)
            assert got(y).tobytes() == want(y).tobytes()


def test_emit_profile_npz_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    xi = np.linspace(-7.25, 3.0, 9)
    y = np.arange(6) / 6.0
    phi = rng.standard_normal((xi.size, y.size)) * 10.0 ** rng.uniform(-20, 3, (xi.size, y.size))
    phi[0, :3] = (0.0, -0.0, 1.0)
    front = fr.FrontSolution(speed=0.25, xi=xi, y=y, phi=phi, pulsating_error=1e-7,
                             mu1_fit=None, mu2_fit=None, speed_estimate=None,
                             diagnostics={"L": 0.5}, tail_mu=(0.5, 0.8), homog=None)
    cfg = parse_config(FRONT_CFG, "front")
    path = tmp_path / "run_profile.npz"
    runner.emit_profile(str(path), front, cfg)
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["L", "c", "config", "phi", "xi", "y"]
        for name, want in (("xi", xi), ("y", y), ("phi", phi)):
            assert npz[name].tobytes() == want.tobytes(), name
        assert npz["c"] == 0.25 and npz["L"] == 0.5
        assert str(npz["config"]) == cfg.config_hash


class TestCliRuns:
    def test_missing_config_exit_2(self, capsys):
        rc = cli.main(["front", "--config", "/nonexistent/x.cfg"])
        assert rc == 2

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[numerics]\nnot_a_key = 7\n")
        rc = cli.main(["front", "--config", str(p)])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    # a value its parser refuses names its key, the boolean's too; a non-finite
    # number used to pass and fail the run (exit 1) once the output existed,
    # and a datum's number only after the whole reference front
    @pytest.mark.parametrize("scenario,section,key,value", [
        ("stability", "run", "spectrum", "maybe"), ("front", "numerics", "L", "abc"),
        pytest.param("eigen", "run", "ubar", "foo", id="ubar-typo"),
        pytest.param("stability", "run", "datum", "wiggle", id="datum-unknown-kind"),
        pytest.param("stability", "run", "datum", "shifted:abc", id="datum-bad-number"),
        pytest.param("steady", "run", "seeds", "abc", id="seeds-unparsable"),
        pytest.param("decay", "run", "c", "nan", id="c-nan"),
        pytest.param("decay", "numerics", "L", "inf", id="L-inf"),
        pytest.param("eigen", "run", "R_list", "2 inf", id="R_list-inf"),
        pytest.param("stability", "run", "stability_budget", "inf", id="stability_budget-inf"),
        pytest.param("scan-e", "run", "L_grid", "0.5 inf", id="L_grid-inf"),
    ])
    def test_unparsable_value_exit_2(self, tmp_path, capsys, scenario, section, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[{section}]\n{key} = {value}\n")
        rc = cli.main([scenario, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert f"bad value for [{section}] {key} = {value!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("key,value", [
        ("nodes_per_period", "0"), ("L", "-1"), ("L", "nan"), ("tail_floor", "2"),
        ("tail_floor", "0"), ("budget", "-5"), ("L", "1e-300"), ("L", "1e300"),
    ])
    def test_out_of_range_numerics_exit_2(self, tmp_path, capsys, key, value):
        # each used to run: a division by zero, a failed instance, a clamped
        # halfwidth, an Inconclusive row at t = 0, a window of more than
        # MAX_NODES nodes or a spacing whose square overflowed (exit 1 once
        # the output existed)
        p = tmp_path / "range.cfg"
        p.write_text(f"[profile]\nfamily = cubic\n\n[numerics]\n{key} = {value}\n")
        rc = cli.main(["front", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"[numerics] {key} = " in err and "must be" in err
        assert list(tmp_path.iterdir()) == [p]

    # each used to run: scan-e and homogenize failed (exit 1) or wrote a
    # header-only CSV (exit 0), eigen failed in the trace, a zero stability
    # budget failed after the whole front run, workers = -3 was taken, decay
    # failed on a bad direction or potential, steady dropped seeds outside
    # (0, 1), quench-scan on the cubic family failed once the output existed,
    # a lambda with |xin_delta * lambda| >= 1 failed with no CSV written, and
    # a [profile] block that its family's constructor refuses (theta, a, delta,
    # xin_delta, xin_lambda, scale, gamma, delta against theta, a missing file,
    # a file without its header or with too few rows) failed at run time once
    # the output existed, and decay at L = 1e300 asked numpy for more than it
    # can allocate; a multi-line value is the contents of a file that the key
    # names
    @pytest.mark.parametrize("scenario,section,key,value", [
        pytest.param("scan-e", "run", "L_grid", "2 1", id="L_grid-decreasing"),
        pytest.param("scan-e", "run", "L_grid", "-1 1", id="L_grid-negative"),
        pytest.param("scan-e", "run", "L_grid", "", id="L_grid-empty"),
        pytest.param("homogenize", "run", "L_list", "0.1 0.2", id="L_list-increasing"),
        pytest.param("homogenize", "run", "L_list", "", id="L_list-empty"),
        pytest.param("quench-scan", "run", "lambda_grid", "", id="lambda_grid-empty"),
        pytest.param("eigen", "run", "R_list", "4", id="R_list-one"),
        pytest.param("eigen", "run", "R_list", "-2 4", id="R_list-negative"),
        pytest.param("stability", "run", "stability_budget", "0", id="stability_budget-zero"),
        pytest.param("eigen", "experiment", "workers", "-3", id="workers-negative"),
        pytest.param("decay", "run", "direction", "sideways", id="direction-typo"),
        pytest.param("decay", "run", "potential", "foo", id="potential-typo"),
        pytest.param("steady", "run", "seeds", "1.5 -2", id="seeds-outside"),
        pytest.param("quench-scan", "profile", "family", "cubic", id="quench-scan-cubic"),
        pytest.param("quench-scan", "run", "lambda_grid", "0 6", id="lambda_grid-positivity"),
        pytest.param("steady", "profile", "theta", "1.5", id="theta-outside"),
        pytest.param("steady", "profile", "a", "-1", id="a-not-positive"),
        pytest.param("steady", "profile", "delta", "0.7", id="delta-outside"),
        pytest.param("steady", "profile", "xin_delta", "0.7", id="xin_delta-outside"),
        pytest.param("steady", "profile", "theta_file", "missing_theta.txt", id="theta_file-missing"),
        pytest.param("steady", "profile", "a_file", "missing_a.txt", id="a_file-missing"),
        pytest.param("steady", "profile", "xin_lambda", "6", id="xin_lambda-positivity"),
        pytest.param("steady", "profile", "scale", "-1", id="scale-not-positive"),
        pytest.param("steady", "profile", "gamma", "0.5", id="gamma-above-margin"),
        pytest.param("steady", "profile", "delta", "0.35", id="delta-above-theta"),  # theta = 0.3
        pytest.param("steady", "profile", "theta_file", "0.0 0.3\n0.25 0.4\n0.5 0.3\n0.75 0.2\n",
                     id="theta_file-no-header"),
        pytest.param("steady", "profile", "a_file", "# period=1\n0.0 1.0\n0.25 1.5\n0.5 2.0\n",
                     id="a_file-too-few-rows"),
        pytest.param("decay", "numerics", "L", "1e300", id="L-decay-grid"),
        pytest.param("scan-e", "run", "L_grid", "1e-300 1", id="L_grid-window-grid"),
    ])
    def test_out_of_range_run_exit_2(self, tmp_path, tmp_path_factory, capsys, scenario, section,
                                     key, value):
        if key.endswith("_file") and "\n" in value:
            data = tmp_path_factory.mktemp("data") / "curve.txt"
            data.write_text(value)
            value = str(data)
        family = "xin" if scenario == "quench-scan" or key.startswith("xin") else "cubic"
        # one [profile] section: a [profile] key's line goes under the family's
        text = "[profile]\n" + (f"family = {family}\n" if key != "family" else "")
        if section != "profile":
            text += f"\n[{section}]\n"
        p = tmp_path / "range.cfg"
        p.write_text(f"{text}{key} = {value}\n")
        rc = cli.main([scenario, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} = " in err and "must be" in err
        assert list(tmp_path.iterdir()) == [p]

    def test_eigen_scenario(self, tmp_path, capsys):
        p = tmp_path / "eigen.cfg"
        p.write_text(EIGEN_CFG)
        rc = cli.main(["eigen", "--config", str(p), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lambda1=-0.3" in out
        csv = (tmp_path / "run_eigen.csv").read_text().splitlines()
        assert csv[1] == "R,lambda_1R"
        assert len(csv) == 5

    # a = 1, theta = 0.3: at a constant state ubar the periodic principal
    # eigenvalue is f_u(ubar) = -3 ubar^2 + 2.6 ubar - 0.3
    @pytest.mark.parametrize("ubar,lambda1", [
        ("one", -0.7), ("theta", 0.3 * 0.7), ("const:0.4", 0.26),
    ])
    def test_eigen_ubar(self, tmp_path, capsys, ubar, lambda1):
        p = tmp_path / "eigen.cfg"
        p.write_text(EIGEN_CFG.replace("ubar = zero", f"ubar = {ubar}"))
        assert cli.main(["eigen", "--config", str(p), "--out", str(tmp_path)]) == 0
        got = float(re.search(r" lambda1=(\S+)", capsys.readouterr().out).group(1))
        assert abs(got - lambda1) < 1e-9

    def test_decay_scenario(self, tmp_path, capsys):
        p = tmp_path / "decay.cfg"
        p.write_text(INSTANCE_CFG + "\n[run]\ndirection = right\nc = 0.0\n")
        rc = cli.main(["decay", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "run_decay.txt").read_text()
        rows = [line.split() for line in text.splitlines()[1:]]
        mu = float(rows[0][1])
        # margin-mode root at c=0 is sqrt(gamma)
        from pulsefront.profiles import make_cubic
        assert mu == pytest.approx(np.sqrt(make_cubic(0.3).gamma), abs=1e-6)
        # a = 1: the seed is the root on every grid
        assert rows[1][0] == "mu_err" and float(rows[1][1]) < 1e-12
        assert f"mu_err={rows[1][1]}" in capsys.readouterr().out

    def test_decay_error_is_the_grid_doubling_gap(self, tmp_path, capsys):
        p = tmp_path / "decay.cfg"
        p.write_text("[profile]\na = 2\na_amp = 1\n\n[numerics]\nL = 2\n\n[run]\nc = 0.28\n")
        assert cli.main(["decay", "--config", str(p), "--out", str(tmp_path)]) == 0
        rows = [line.split() for line in (tmp_path / "run_decay.txt").read_text().splitlines()[1:]]
        from pulsefront.spectral import decay_root_mu
        inst = build_instance(parse_config(p.read_text(), "decay"))
        mu, mu_2n = (decay_root_mu(inst, 0.28, refine=k) for k in (1, 2))
        assert [r[0] for r in rows] == ["mu", "mu_err"]
        assert float(rows[0][1]) == float(f"{mu:.10g}")
        assert float(rows[1][1]) == float(f"{abs(mu - mu_2n):.10g}")
        assert 1e-9 < abs(mu - mu_2n) < 1e-6

    def test_steady_scenario(self, tmp_path, capsys):
        p = tmp_path / "steady.cfg"
        p.write_text(INSTANCE_CFG)
        rc = cli.main(["steady", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unstable" in out
        dump = (tmp_path / "run_steady_0.txt").read_text().splitlines()
        assert "lambda1=" in dump[0] and "class=unstable" in dump[0]

    @pytest.mark.slow
    def test_front_scenario_and_reproducibility(self, tmp_path, capsys):
        p = tmp_path / "front.cfg"
        p.write_text(FRONT_CFG)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert cli.main(["front", "--config", str(p), "--out", str(out1)]) == 0
        assert cli.main(["front", "--config", str(p), "--out", str(out2)]) == 0
        stdout = capsys.readouterr().out
        assert "c=0.282" in stdout
        for name in ("run_front.csv", "run_profile.npz"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        with np.load(out1 / "run_profile.npz", allow_pickle=False) as npz:
            assert npz["phi"].shape == (npz["xi"].size, npz["y"].size)

    @pytest.mark.slow
    def test_stability_scenario_json(self, tmp_path):
        p = tmp_path / "stab.cfg"
        p.write_text(FRONT_CFG + "\n[run]\ndatum = bump:0.05\nstability_budget = 80\n")
        rc = cli.main(["stability", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "run_stability.json").read_text())
        assert rep["accepted"] is True
        assert rep["mu_fit"] > 0
        assert rep["sup_errors"]
        sup = (tmp_path / "run_sup_errors.txt").read_text().splitlines()
        assert sup[0].startswith("# pulsefront")

    def test_stability_shifted_datum(self, tmp_path):
        # the front shifted by 3 relaxes at -lambda1 = 0.315
        p = tmp_path / "stab.cfg"
        p.write_text(FRONT_CFG + "\n[run]\ndatum = shifted:3\nstability_budget = 120\n")
        assert cli.main(["stability", "--config", str(p), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "run_stability.json").read_text())
        assert rep["accepted"] is True
        assert abs(rep["mu_fit"] / 0.315 - 1.0) < 0.05

    @pytest.mark.slow
    def test_stability_scenario_spectrum(self, tmp_path, capsys):
        # the committed config asks for the period-map spectrum, which the
        # runner computes at poincare_spectrum's default node budget; its
        # record stays above the fit floor, so the budget stops the run
        path = os.path.join(REPO, "configs", "stability_ref.cfg")
        assert load_config(path, "stability")["run"]["spectrum"] is True
        rc = cli.main(["stability", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "run_stability.json").read_text())
        assert len(rep["spectrum"]) >= 2
        assert abs(complex(*rep["spectrum"][0]) - 1.0) < 1e-2
        assert rep["diagnostics"]["stop"] == "budget"
        assert " stop=budget t_final=" in capsys.readouterr().out

    @pytest.mark.slow
    def test_scan_e_scenario(self, tmp_path):
        p = tmp_path / "scan.cfg"
        p.write_text(FRONT_CFG + "\n[run]\nL_grid = 0.5 1.0\n")
        rc = cli.main(["scan-e", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "run_scan.csv").read_text().splitlines()
        assert lines[1].startswith("L,classification")
        assert lines[2].split(",")[1] == "Propagating"
        assert lines[3].split(",")[1] == "Propagating"

    @pytest.mark.slow
    def test_homogenize_scenario(self, tmp_path, capsys):
        p = tmp_path / "homog.cfg"
        p.write_text(FRONT_CFG.replace("budget = 300", "budget = 300\ntail_floor = 1e-6")
                     + "\n[run]\nL_list = 0.8 0.4\n")
        rc = cli.main(["homogenize", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        assert "c0=0.2828" in capsys.readouterr().out
        lines = (tmp_path / "run_homogenize.csv").read_text().splitlines()
        assert lines[1] == "L,c_L,c0,c_gap_rel,profile_gap_L2,shift"
        assert len(lines) == 4
        assert (tmp_path / "run_phi0.txt").exists()

    @pytest.mark.slow
    def test_quench_scan_scenario(self, tmp_path, capsys):
        p = tmp_path / "quench.cfg"
        p.write_text("""
[profile]
family = xin
xin_delta = 0.1
xin_mu = 1.0

[numerics]
tail_floor = 1e-5
budget = 400

[run]
lambda_grid = 0 2
""")
        rc = cli.main(["quench-scan", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "non-increasing along lambda: True" in out
        lines = (tmp_path / "run_quench.csv").read_text().splitlines()
        assert lines[1].startswith("lambda,classification")
        assert len(lines) == 4


def test_quench_scan_lists_newton_attempts_as_pinning_evidence(tmp_path, monkeypatch):
    # an Inconclusive run that tried the pinning certification (its |c_hat|
    # fell below the floor) is evidence; one that never did is not
    attempted = fr.ClassificationRecord(
        kind=fr.INCONCLUSIVE, c=None, evidence={"reason": "budget", "t_final": 900.0,
                                                "newton_residual": 2e-3,
                                                "newton_iterations": 12})
    plain = fr.ClassificationRecord(kind=fr.INCONCLUSIVE, c=None,
                                    evidence={"reason": "budget", "t_final": 900.0})
    recs = iter([plain, attempted])
    monkeypatch.setattr(runner.fr, "classify_quenching", lambda *args: next(recs))
    cfg = parse_config("[profile]\nfamily = xin\n\n[run]\nlambda_grid = 1 4\n",
                       "quench-scan")
    res = runner.run_scenario(cfg, str(tmp_path))
    assert "quench: pinning evidence at lambda = 4" in res.summary_lines


def _scipy_modules_loaded(tmp_path, runs):
    """The scipy.interpolate, scipy.optimize and scipy.integrate modules that
    one fresh process loads while it runs each (scenario, config) of runs; a
    config is a file name under configs/ or an absolute path."""
    code = ("import json, sys\n"
            "from pulsefront import cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    assert cli.main(args) == 0, args\n"
            "print(json.dumps(sorted(m for m in ('scipy.interpolate', 'scipy.optimize',"
            " 'scipy.integrate') if m in sys.modules)))\n")
    argv = [[name, "--config", os.path.join(REPO, "configs", cfg), "--out", str(tmp_path / name)]
            for name, cfg in runs]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_front_path_loads_no_interpolate_optimize_integrate(tmp_path):
    # fbar is a polynomial, so neither a front run nor a steady-state run,
    # which seeds Newton at theta_bar, loads these; eigen and decay read no fbar
    assert _scipy_modules_loaded(tmp_path, (
        ("front", "front_homogeneous.cfg"), ("eigen", "eigen_trace.cfg"),
        ("decay", "front_homogeneous.cfg"), ("steady", "front_homogeneous.cfg"))) == []


def test_homogenize_loads_no_interpolate_integrate(tmp_path):
    # the limit front is the closed-form logistic; profile alignment's bounded
    # Brent is the only scipy.optimize user.  The config's first period alone
    # runs every step of the sweep in a ninth of the time
    with open(os.path.join(REPO, "configs", "homogenize_cos.cfg")) as fh:
        text = fh.read()
    cfg = tmp_path / "homogenize_cos.cfg"
    cfg.write_text(text.replace("L_list = 0.8 0.4 0.2 0.1", "L_list = 0.8"))
    loaded = _scipy_modules_loaded(tmp_path, (("homogenize", str(cfg)),))
    assert "scipy.interpolate" not in loaded and "scipy.integrate" not in loaded


def test_help_lists_scenarios(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for sub in ("front", "homogenize", "eigen", "steady", "scan-e",
                "stability", "decay", "quench-scan"):
        assert sub in out
    assert "nodes_per_period" in out  # config keys documented in the epilog
