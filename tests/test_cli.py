import json
import os

import numpy as np
import pytest

from pulsefront import __version__, cli, runner
from pulsefront import fronts as fr
from pulsefront.config import ConfigError, build_instance, describe_schema, parse_config


FRONT_CFG = """
[profile]
family = cubic
theta = 0.3

[numerics]
L = 1.0
budget = 300
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
        assert cfg["numerics"]["dt"] is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(FRONT_CFG + "typo_key = 3\n", "front")

    # keys for values that are module constants (the quadrature size, the
    # stationary tolerance and window) or read by no solve (a [run] node
    # count, the seed-free pipeline's deterministic flag) are unknown keys
    @pytest.mark.parametrize("section,key,value", [
        pytest.param("numerics", "quad_n", "512", id="numerics-quad_n"),
        pytest.param("run", "n_nodes", "512", id="run-n_nodes"),
        pytest.param("numerics", "tol_stat", "1e-6", id="numerics-tol_stat"),
        pytest.param("numerics", "stat_window", "100.0", id="numerics-stat_window"),
        pytest.param("experiment", "deterministic", "true", id="experiment-deterministic"),
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
        for key in ("nodes_per_period", "tol_puls", "lambda_grid", "ubar", "prefix"):
            assert key in doc


class TestBuildInstance:
    XIN_CFG = "[profile]\nfamily = xin\nxin_delta = 0.2\n"

    def test_xin_honours_numerics_L(self):
        cfg = parse_config(self.XIN_CFG + "[numerics]\nL = 3.0\n", "front")
        inst = build_instance(cfg)
        assert inst.L == 3.0
        assert inst.a_L(0.75) == pytest.approx(1.0 + 0.2 * np.sin(0.5 * np.pi))

    def test_xin_default_L(self):
        assert build_instance(parse_config(self.XIN_CFG, "front")).L == 1.0


def test_emit_profile_matches_nested_loop_formatting(tmp_path):
    rng = np.random.default_rng(11)
    xi = np.linspace(-7.25, 3.0, 9)
    y = np.arange(6) / 6.0
    phi = rng.standard_normal((xi.size, y.size)) * 10.0 ** rng.uniform(-20, 3, (xi.size, y.size))
    phi[0, :3] = (0.0, -0.0, 1.0)
    front = fr.FrontSolution(speed=0.25, xi=xi, y=y, phi=phi, pulsating_error=1e-7,
                             mu1_fit=None, mu2_fit=None, stationary=False,
                             speed_estimate=None, replica_spread=0.0,
                             diagnostics={"L": 1.0})
    cfg = parse_config(FRONT_CFG, "front")
    path = tmp_path / "profile.txt"
    runner.emit_profile(str(path), front, cfg)
    head = (f"# pulsefront {__version__} config={cfg.config_hash} scenario=front"
            " c=0.25 L=1\n# xi y phi\n")
    body = "".join(f"{xi[i]:.10g} {y[j]:.10g} {phi[i, j]:.10g}\n"
                   for i in range(xi.size) for j in range(y.size))
    assert path.read_bytes() == (head + body).encode()


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

    def test_decay_scenario(self, tmp_path, capsys):
        p = tmp_path / "decay.cfg"
        p.write_text(FRONT_CFG + "\n[run]\ndirection = right\nc = 0.0\n")
        rc = cli.main(["decay", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "run_decay.txt").read_text()
        mu = float(text.splitlines()[1].split()[1])
        # margin-mode root at c=0 is sqrt(gamma)
        from pulsefront.profiles import make_cubic
        assert mu == pytest.approx(np.sqrt(make_cubic(0.3).gamma), abs=1e-6)

    def test_steady_scenario(self, tmp_path, capsys):
        p = tmp_path / "steady.cfg"
        p.write_text(FRONT_CFG)
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
        for name in ("run_front.csv", "run_profile.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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


def test_help_lists_scenarios(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for sub in ("front", "homogenize", "eigen", "steady", "scan-e",
                "stability", "decay", "quench-scan"):
        assert sub in out
    assert "nodes_per_period" in out  # config keys documented in the epilog
