import dataclasses
import math
import warnings

import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.homogenize as hg
import pulsefront.profiles as pr
import pulsefront.spectral as spx
from pulsefront.solver import build_grid


class TestLevelPosition:
    def test_monotone_profile(self):
        x = np.linspace(-5, 5, 201)
        u = 1.0 / (1.0 + np.exp(x / 0.7))
        assert fr.level_position(x, u) == pytest.approx(0.0, abs=1e-6)

    def test_outermost_of_multiple(self):
        # crossings near 3, 4 and 6: the largest x with u >= level wins, with
        # the sub-grid interpolation on its cell
        x = np.linspace(0, 10, 401)
        u = np.where(x < 3, 1.0, np.where(x < 4, 0.2, np.where(x < 6, 0.8, 0.0)))
        i = int(np.max(np.nonzero(u >= 0.5)[0]))
        expected = x[i] + (u[i] - 0.5) / (u[i] - u[i + 1]) * (x[i + 1] - x[i])
        assert fr.level_position(x, u) == expected
        assert 5.9 < expected < 6.1

    def test_last_node_above(self):
        x = np.linspace(0, 1, 11)
        u = np.linspace(0, 1, 11)
        assert fr.level_position(x, u) == 1.0

    def test_flat_has_none(self):
        x = np.linspace(0, 1, 11)
        assert fr.level_position(x, np.zeros(11)) is None
        assert fr.level_position(x, np.ones(11)) is None


class TestMinimizer:
    # (x, f(x)) with x within tol of the minimizer: smooth, a V like the phase
    # fit's sup-norm objective, and a minimum at an end of the interval.
    # Bounded Brent's stopping test adds a relative sqrt(eps) |x| per side.
    @pytest.mark.parametrize("f, lo, hi, x_min", [
        (lambda x: (x - 0.3) ** 2 + 1.0, -2.0, 5.0, 0.3),
        (lambda x: abs(x - 1.37), -5.0, 5.0, 1.37),
        (lambda x: x * x, 0.5, 4.0, 0.5),
        (lambda x: -x, -1.0, 2.0, 2.0),
    ])
    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_minimizer_within_tol(self, f, lo, hi, x_min, tol):
        x, fx = fr._golden_min(f, lo, hi, tol=tol)
        assert abs(x - x_min) <= tol + 2 * math.sqrt(np.finfo(float).eps) * abs(x_min)
        assert fx == f(x)

    def test_alignment_evaluation_count(self, monkeypatch):
        # on a 128-node-per-period lattice like the sweep's the minimizer
        # evaluates the gap at most 15 times
        homog = pr.homogenized_data(pr.CoefficientProfile.from_curve(pr.HarmonicCurve(2.0, 1.0)),
                                    pr.make_cubic(0.3))
        front = hg.solve_homogenized_front(homog)
        xi = np.arange(-1280, 1281) / 128
        y = np.arange(128) / 128
        phi = front(xi[:, None] - 0.9 - 0.05 * np.cos(2 * np.pi * y)[None, :])
        evals = []
        golden = hg._golden_min

        def counted(f, *args, **kwargs):
            def g(s):
                evals.append(s)
                return f(s)
            return golden(g, *args, **kwargs)
        monkeypatch.setattr(hg, "_golden_min", counted)
        s_star, _ = hg.align_profiles(xi, phi, front)
        assert s_star == pytest.approx(0.9, abs=1e-2)
        assert len(evals) <= 15


class TestMeasureSpeed:
    def test_synthetic_wobble(self):
        t = np.linspace(0, 40, 400)
        x = 0.3 * t + 0.01 * np.sin(2 * np.pi * t)
        est = fr.measure_speed(t, x)
        assert est.c_level == pytest.approx(0.3, abs=0.01)
        assert est.unc_level < 0.01

    def test_constant_positions(self):
        t = np.linspace(0, 10, 50)
        est = fr.measure_speed(t, np.full_like(t, 1.23))
        assert est.c_level == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fr.measure_speed([0, 1, 2], [0, 1, 2])

    def test_period_means_recover_speed(self):
        # a pulsating position over 2.9 periods: the slope of the means over
        # the two whole periods ending at the last sample is c up to sampling
        # error, while the least-squares slope carries the wobble
        c, T = 0.3, 1.0 / 0.3
        t = np.arange(0.0, 2.9 * T, 0.05)
        x = c * t + 0.1 * np.sin(2 * np.pi * t / T)
        est = fr.measure_speed(t, x, T)
        c_ls, stderr = fr.fit_line(t, x)
        assert abs(est.c_level - c) < 1e-9
        assert abs(c_ls - c) > 1e-3
        # the uncertainty stays the least-squares one, never a two-point 0
        assert est.unc_level == stderr + 1e-12

    def test_period_means_need_two_periods(self):
        t = np.arange(0.0, 1.9, 0.05)
        x = 0.3 * t + 0.1 * np.sin(2 * np.pi * t)
        assert fr.period_mean_slope(t, x, 1.0) is None
        assert fr.measure_speed(t, x, 1.0).c_level == fr.fit_line(t, x)[0]



def pulsating_period(inst, c, T_hat, m0=64):
    """One stored period of length T_hat (m0 + 1 rows) of the pulsating
    profile u(t, x) = phi(x - c t + 0.2 sin(2 pi x/L)), which satisfies
    u(t + L/|c|, x + sign(c) L) = u(t, x) exactly."""
    grid = build_grid(inst, 10.0, m0)
    t = np.arange(m0 + 1)[:, None] * (T_hat / m0)
    x = grid.nodes
    U = 1.0 / (1.0 + np.exp((x - c * t + 0.2 * np.sin(2 * np.pi * x / inst.L))
                            / np.sqrt(2)))
    return fr.SnapshotSeries(t0=0.0, dt_snap=T_hat / m0, U=U, grid=grid)


class TestWholePeriodMatching:
    @pytest.mark.parametrize("c", [0.25, -0.4])
    @pytest.mark.parametrize("ratio", [1.01, 1.001])
    def test_one_projection_finds_the_period(self, homog_inst, c, ratio):
        # a period stepped at T^ = ratio * T: one projection on u_t lands
        # within 1e-6 T of T, and the returned width covers the error
        T = homog_inst.L / abs(c)
        snaps = pulsating_period(homog_inst, c, ratio * T)
        margin = snaps.grid.nodes_per_period + 4
        shift = 1 if c > 0 else -1
        T_star, defect, width = fr.min_shift_defect(snaps, margin, shift)
        assert abs(T_star - T) < 1e-6 * T
        assert abs(T_star - T) <= width
        assert defect == np.max(np.abs(snaps.shift_defect(margin, shift)))
        assert defect > 1e-5

    @pytest.mark.parametrize("c", [0.25, -0.4])
    def test_exact_period_has_no_defect(self, homog_inst, c):
        T = homog_inst.L / abs(c)
        snaps = pulsating_period(homog_inst, c, T)
        T_star, defect, _ = fr.min_shift_defect(snaps, 68, 1 if c > 0 else -1)
        assert defect < 1e-12
        assert abs(T_star - T) < 1e-10 * T

    def test_stopped_front_has_no_period(self, homog_inst):
        # a front that stopped leaves u_t = 0 at the end of the period: the
        # projection finds no period instead of dividing by zero
        snaps = pulsating_period(homog_inst, 0.25, 4.0)
        snaps.U[-1] = snaps.U[-2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T_star, defect, width = fr.min_shift_defect(snaps, 68, 1)
        assert math.isnan(T_star) and width == math.inf
        assert defect == np.max(np.abs(snaps.shift_defect(68, 1)))


def replica_loop_extract(snaps, c, margin_nodes):
    """The per-column replica loop that fronts.extract_profile replaced: for
    each column j, the nodes q = j + mm*M of replica mm, each read at row
    |q - p| of the stored period.  Kept as the reference for bitwise equality."""
    grid = snaps.grid
    m0, n, h = grid.nodes_per_period, grid.n, grid.h
    lo_node, hi_node = margin_nodes, n - 1 - margin_nodes
    s = 1 if c > 0 else -1
    p_lo = lo_node + (m0 if c < 0 else 0)
    p_hi = hi_node - (m0 if c > 0 else 0)
    ps = np.arange(p_lo, p_hi + 1)
    phi = np.zeros((len(ps), m0))
    for j in range(m0):
        acc = np.zeros(len(ps))
        cnt = np.zeros(len(ps))
        # the replicas mm whose node q lies between p and p + s*m0
        m_first = -((j - np.minimum(ps, ps + s * m0)) // m0)
        m_last = (np.maximum(ps, ps + s * m0) - j) // m0
        for r in range(max(int(np.max(m_last - m_first)) + 1, 0)):
            mm = m_first + r
            q = j + mm * m0
            ok = (mm <= m_last) & (q >= lo_node) & (q <= hi_node)
            row = np.minimum(np.abs(q - ps), m0)
            vals = snaps.U[row, np.clip(q, 0, n - 1)]
            acc[ok] += vals[ok]
            cnt[ok] += 1
        assert (cnt > 0).all()
        phi[:, j] = acc / cnt
    return grid.x_min + h * ps, np.arange(m0) / m0, phi


class TestExtractProfile:
    # one stored period of a profile translating at c: c < 0, and a period
    # shorter than c (L < c)
    @pytest.mark.parametrize("L,c", [(1.0, -0.25), (0.1, 0.37)])
    def test_bitwise_equal_to_replica_loop(self, unit_coeff, cubic03, L, c):
        inst = pr.ProblemInstance(coeff=unit_coeff, reaction=cubic03, L=L)
        snaps = pulsating_period(inst, c, L / abs(c))
        margin = snaps.grid.nodes_per_period + 4
        got = fr.extract_profile(snaps, c, margin)
        want = replica_loop_extract(snaps, c, margin)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_recovers_the_pulsating_profile(self, homog_inst):
        # each lattice point is read at its exact time: phi(xi, y) is the
        # profile u(t, x) = phi(x - c t + 0.2 sin(2 pi x/L)) at x - c t = xi
        c = 0.25
        snaps = pulsating_period(homog_inst, c, homog_inst.L / c)
        xi, ys, phi = fr.extract_profile(snaps, c, 68)
        want = 1.0 / (1.0 + np.exp((xi[:, None] + 0.2 * np.sin(2 * np.pi * ys))
                                   / np.sqrt(2)))
        assert np.max(np.abs(phi - want)) < 1e-12


class TestComputeFront:
    def test_homogeneous_speed_oracle(self, homog_front):
        exact = 0.4 / np.sqrt(2.0)
        est = homog_front.speed_estimate
        assert homog_front.speed == pytest.approx(exact, abs=1e-2)
        assert est.c_level == pytest.approx(exact, abs=1e-2)
        assert not homog_front.stationary

    def test_profile_is_y_independent(self, homog_front):
        spread = np.max(homog_front.phi, axis=1) - np.min(homog_front.phi, axis=1)
        assert np.max(spread) < 1e-6

    def test_profile_limits(self, homog_front):
        prof = homog_front.phi.mean(axis=1)
        assert prof[0] > 1.0 - 1e-3
        assert prof[-1] < 1e-3

    def test_profile_monotone_in_xi(self, homog_front):
        assert np.max(np.diff(homog_front.phi, axis=0)) < 1e-9

    def test_pulsating_defect_small(self, homog_front):
        assert homog_front.pulsating_error < 1e-3

    def test_solution_in_unit_range(self, homog_front):
        assert homog_front.phi.min() >= -1e-9
        assert homog_front.phi.max() <= 1.0 + 1e-9

    def test_time_monotone(self, homog_front):
        assert homog_front.diagnostics["time_monotonicity_defect"] < 1e-9

    def test_symmetric_cubic_is_stationary(self):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=1.0)
        front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(), fr.Budget(400.0))
        assert front.stationary
        assert front.speed == 0.0
        assert front.diagnostics["stationary_residual"] < 1e-6

    def test_budget_too_small_is_inconclusive(self, homog_inst):
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(),
                                       fr.Budget(2.0))
        assert "t_final" in err.value.diagnostics
        assert err.value.diagnostics["reason"] == "budget"
        assert err.value.diagnostics["reason"] in fr.REASONS


def _one_chunk(inst, cfg=fr.FrontRunConfig()):
    """A front run's window after its first SETTLE_TIME chunk and recenter."""
    hd = pr.homogenized_data(inst.coeff, inst.reaction)
    grid = build_grid(inst, max(fr.default_halfwidth(hd, cfg.tail_floor), 1.5 * inst.L),
                      cfg.nodes_per_period)
    c = fr.speed_scale(hd)
    state = fr._RunState(inst, grid, fr.choose_dt(inst.reaction.lip_k, grid.h, c),
                         fr.limit_front_rate(hd),
                         fr.window_tails(inst, hd, math.copysign(c, hd.i_fbar),
                                         grid.nodes_per_period, solve=False))
    state.advance(fr.SETTLE_TIME)
    state.recenter(fr.level_position(grid.nodes, state.u))
    return state


def _csv_fields(point):
    return dict(zip(fr.SWEEP_CSV_HEADER.split(","), point.csv_row().split(",")))


class TestPinnedCertification:
    """A front whose half-level moved less than one node over a chunk is
    called Stationary by a Newton solve on the run's own window, not by
    waiting."""

    @pytest.mark.parametrize("a", [pr.HarmonicCurve(1.0), pr.HarmonicCurve(2.0, 1.0)],
                             ids=["a=1", "a=2+cos"])
    def test_criterion_2_pinned_fronts_certified_early(self, a):
        # the sign matrix's theta = 0.5 fronts used to wait 100 time units
        coeff = pr.CoefficientProfile.from_curve(a)
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=0.5)
        front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(tail_floor=1e-6),
                                           fr.Budget(500.0))
        d = front.diagnostics
        floor = spx.newton_floor(build_grid(inst, d["halfwidth"]).a_face, d["h"])
        assert front.stationary
        assert d["t_final"] <= 20.0
        assert d["stationary_residual"] == d["newton_residual"] < floor
        assert d["lambda1"] <= floor
        assert d["newton_iterations"] >= 0 and d["excursion"] == 0.0
        assert len(d["range_seen"]) == 2

    @pytest.mark.parametrize("theta", [0.3, 0.49])
    def test_slow_propagating_state_refused(self, theta):
        # the damped Newton stalls far above the floor on a moving front
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(theta), L=1.0)
        state = _one_chunk(inst)
        u = state.u.copy()
        v, rec = state.pinned_state()
        assert v is None
        assert rec["newton_residual"] > 1e-3
        assert rec["lambda1"] is None
        np.testing.assert_array_equal(state.u, u)

    @pytest.fixture
    def pinned_inst(self):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=1.0)

    def test_stationary_row_has_no_level_speed(self, pinned_inst):
        rec = fr.classify_quenching(pinned_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        row = _csv_fields(fr.SweepPoint(L=pinned_inst.L, record=rec))
        assert row["classification"] == fr.STATIONARY
        assert float(row["c_period"]) == 0.0
        assert math.isnan(float(row["c_level"])) and math.isnan(float(row["uncertainty"]))

    def test_positive_lambda1_stays_non_stationary(self, pinned_inst, monkeypatch):
        real = fr._principal_banded
        monkeypatch.setattr(fr, "_principal_banded",
                            lambda d, off: (1e-6,) + real(d, off)[1:])
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(pinned_inst, fr.FrontRunConfig(), fr.Budget(30.0))
        d = err.value.diagnostics
        assert d["reason"] == "budget"
        assert d["lambda1"] == 1e-6
        assert d["newton_residual"] < 1e-10

    def test_state_beyond_one_period_stays_non_stationary(self, pinned_inst, monkeypatch):
        # a converged state whose half-level lies two periods from the run's
        real = fr.damped_newton

        def far(residual, step, u, tol):
            v, norm, its = real(residual, step, u, tol)
            return np.concatenate([v[128:], np.zeros(128)]), norm, its
        monkeypatch.setattr(fr, "damped_newton", far)
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(pinned_inst, fr.FrontRunConfig(), fr.Budget(30.0))
        d = err.value.diagnostics
        assert d["reason"] == "budget"
        assert d["newton_residual"] < 1e-10 and d["lambda1"] <= 1e-10


class TestPinnedWithPositiveReactionIntegral:
    """theta(y) = 0.45 + 0.2 cos 2 pi y on a = 1: int fbar = 1/120 > 0, yet
    the front pins from L = 6 on, with a strictly stable pinned front."""

    @pytest.fixture(scope="class")
    def coeff(self):
        return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))

    @pytest.fixture(scope="class")
    def reaction(self):
        return pr.make_cubic(pr.HarmonicCurve(0.45, 0.2))

    def test_scan_propagates_then_pins(self, coeff, reaction):
        # the L = 10 front stopped inside a period map, whose projection
        # divided by u_t = 0 and crashed the whole scan
        points = fr.scan_E(coeff, reaction, [1.0, 4.0, 6.0, 10.0], fr.FrontRunConfig(),
                           fr.Budget(900.0))
        kinds = [p.record.kind for p in points]
        assert kinds == [fr.PROPAGATING] * 2 + [fr.STATIONARY] * 2
        for p in points[2:]:
            assert p.record.evidence["lambda1"] < 0.0
            assert p.record.evidence["t_final"] <= 150.0

    def test_large_period_certified_early(self, coeff, reaction):
        # it used to wait for two period maps, until t = 476
        inst = pr.ProblemInstance(coeff=coeff, reaction=reaction, L=20.0)
        rec = fr.classify_quenching(inst, fr.FrontRunConfig(), fr.Budget(900.0))
        assert rec.kind == fr.STATIONARY
        assert rec.evidence["lambda1"] < 0.0
        assert rec.evidence["t_final"] <= 60.0

    @pytest.mark.parametrize("L, c", [(5.0, 0.0523421), (5.5, 0.0339120)])
    def test_stick_slip_front_accepted(self, coeff, reaction, L, c):
        # the front sticks and slips within each period; a least-squares
        # level fit over 10-20 units of that motion read c_hat from 0.02 to
        # 0.12, and the run spent its budget
        inst = pr.ProblemInstance(coeff=coeff, reaction=reaction, L=L)
        rec = fr.classify_quenching(inst, fr.FrontRunConfig(), fr.Budget(900.0))
        assert rec.kind == fr.PROPAGATING
        assert abs(rec.c - c) < 1e-6

    @pytest.mark.parametrize("L", [6.0, 10.0, 40.0])
    def test_pinned_front_certified_by_t60(self, coeff, reaction, L):
        # the first c_hat is the record's whole-period advance, so no period
        # map runs at a speed read off the front's creep (t = 71 to 143)
        inst = pr.ProblemInstance(coeff=coeff, reaction=reaction, L=L)
        rec = fr.classify_quenching(inst, fr.FrontRunConfig(), fr.Budget(900.0))
        assert rec.kind == fr.STATIONARY
        assert rec.evidence["lambda1"] < 0.0
        assert rec.evidence["t_final"] <= 60.0

    def test_stationary_row_has_no_level_speed(self, coeff, reaction):
        # the level's creep into its pinned position printed c_level 0.0028
        # with uncertainty 1e-5 beside c_period 0
        row = _csv_fields(fr.scan_E(coeff, reaction, [6.0], fr.FrontRunConfig(),
                                    fr.Budget(900.0))[0])
        assert row["classification"] == fr.STATIONARY
        assert float(row["c_period"]) == 0.0
        assert math.isnan(float(row["c_level"])) and math.isnan(float(row["uncertainty"]))

    def test_moving_front_tries_no_certificate(self, homog_front):
        # the reference front's level moves by chunks, never less than a node
        assert "newton_residual" not in homog_front.diagnostics


class TestLimitFrontDatum:
    # cubic-class instances: a = 2 + cos with theta = 0.3 + 0.1 cos, the Xin
    # family at lambda = 3, and the standing front theta = 0.5
    CASES = {
        "cos-cos": lambda: pr.ProblemInstance(
            coeff=pr.CoefficientProfile.from_curve(pr.HarmonicCurve(2.0, 1.0)),
            reaction=pr.make_cubic(pr.HarmonicCurve(0.3, 0.1)), L=0.5),
        "xin-3": lambda: pr.make_xin_example(0.2, 3.0, 0.3),
        "theta-0.5": lambda: pr.ProblemInstance(
            coeff=pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0)),
            reaction=pr.make_cubic(0.5), L=1.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rate_is_the_limit_front(self, name):
        inst = self.CASES[name]()
        homog = pr.homogenized_data(inst.coeff, inst.reaction)
        kappa = fr.limit_front_rate(homog)
        front = hg.solve_homogenized_front(homog)
        assert abs(front.lambda1 - kappa) < 1e-9
        assert abs(front.lambda2 - kappa) < 1e-9
        xi = np.linspace(-10.0, 10.0, 2001)
        assert np.max(np.abs(front(xi) - 1.0 / (1.0 + np.exp(kappa * xi)))) < 1e-6

    def test_reference_front_accepts_third_period(self, homog_inst, homog_front):
        # the datum is already close to the front: after the first chunk the
        # period differences fall below the tolerance at the second period,
        # so the run stops after the third, at t = 10 + 3 T
        diag = homog_front.diagnostics
        homog = pr.homogenized_data(homog_inst.coeff, homog_inst.reaction)
        assert diag["datum_rate"] == fr.limit_front_rate(homog)
        defects = diag["period_defects"]
        assert len(defects) == 3
        assert defects[0] > fr.TOL_PULS > defects[1] > defects[2]
        assert defects[-1] == homog_front.pulsating_error
        assert diag["t_final"] < 25.0


class TestStoppingRule:
    @pytest.mark.slow
    def test_slow_front_captured_under_tolerance(self, quench_records):
        # Xin lambda = 4, c about 0.066: no fixed wait, so only the defect
        # decides when the run stops
        lam, rec = quench_records[-1]
        assert lam == 4.0 and rec.kind == fr.PROPAGATING
        assert 0.05 < abs(rec.c) < 0.08
        assert rec.front.pulsating_error < fr.TOL_PULS

    def test_window_past_budget_keeps_evolving(self, homog_inst, monkeypatch):
        # the tolerance is out of reach; the period due at t = 27.7 would end
        # near t = 31.2, past the budget, so the run evolves on to t_max
        # instead of stopping there
        budget = fr.Budget(28.0)
        monkeypatch.setattr(fr, "TOL_PULS", 1e-14)
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(), budget)
        diag = err.value.diagnostics
        assert diag["reason"] == "budget"
        assert diag["last_defect"] is not None
        assert diag["t_final"] == pytest.approx(budget.t_max, abs=diag["dt"])

    def test_confirmation_past_budget_keeps_evolving(self, homog_inst):
        # periods of T = 3.54 from t = 10: the second passes and ends near
        # t = 17.1; its confirmation would end near t = 20.6, past the
        # budget, so it is skipped and the run steps on to t_max instead of
        # retrying it without stepping
        budget = fr.Budget(18.0)
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(), budget)
        diag = err.value.diagnostics
        assert diag["reason"] == "budget"
        assert len(diag["period_defects"]) == 2
        assert diag["period_defects"][0] > fr.TOL_PULS > diag["period_defects"][1]
        assert diag["t_final"] == pytest.approx(budget.t_max, abs=diag["dt"])

    def test_small_period_front_has_level_speed(self, cos_coeff, cubic03):
        # at L = 0.1 and 16 nodes per period the level is recorded 16 times
        # a period, so the two accepted periods hold MIN_LEVEL_SAMPLES
        inst = pr.ProblemInstance(coeff=cos_coeff, reaction=cubic03, L=0.1)
        front = fr.compute_pulsating_front(
            inst, fr.FrontRunConfig(nodes_per_period=16, tail_floor=1e-6),
            fr.Budget(400.0))
        est = front.speed_estimate
        assert not front.stationary
        assert math.isfinite(est.c_level) and est.unc_level > 0.0
        assert abs(est.c_level - est.c_period) <= est.uncertainty

    def test_speed_fit_spans_two_periods(self, cos_coeff, monkeypatch):
        # T = L/|c| is about 31 here, longer than SETTLE_TIME: a level fit
        # over 20 time units swung with the front's phase (T^ from 26 to 63)
        # and, from the steep datum of rate 0.5/h, the run spent its budget
        inst = pr.ProblemInstance(coeff=cos_coeff, reaction=pr.make_cubic(
            pr.HarmonicCurve(0.35, 0.1)), L=8.0)
        cfg = fr.FrontRunConfig(nodes_per_period=32)
        monkeypatch.setattr(fr, "limit_front_rate",
                            lambda homog: 0.5 * cfg.nodes_per_period / inst.L)
        front = fr.compute_pulsating_front(inst, cfg, fr.Budget(900.0))
        assert inst.L / abs(front.speed) > fr.SETTLE_TIME
        assert front.pulsating_error < fr.TOL_PULS
        assert front.diagnostics["datum_rate"] == 2.0

    def test_long_period_front_accepted_early(self, cos_coeff):
        # T = L/|c| is about 31: whole periods make the period difference
        # exact, so the run needs no luck once c_hat is right (with a
        # 1.45-period window interpolated in time it waited until t = 884.5)
        inst = pr.ProblemInstance(coeff=cos_coeff, reaction=pr.make_cubic(
            pr.HarmonicCurve(0.35, 0.1)), L=8.0)
        front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(nodes_per_period=32),
                                           fr.Budget(900.0))
        assert not front.stationary
        assert front.pulsating_error < fr.TOL_PULS
        assert front.diagnostics["t_final"] < 400.0


class TestPeriodMapRun:
    """The run iterates the period map: a slide by one period after every
    period, so the tails are part of the fixed point and the one-period
    difference falls without a floor set by the pinned ends."""

    def test_small_domain_front_converges(self, homog_inst):
        # at tail_floor 1e-2 the pinned ends sit where the tails are near
        # 1e-2; recentered every few periods, the differences cycled between
        # 3.8e-5 and 1.8e-4 until the 300-unit budget ran out
        front = fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(tail_floor=1e-2),
                                           fr.Budget(300.0))
        assert front.pulsating_error < fr.TOL_PULS
        assert front.diagnostics["t_final"] < 40.0
        assert front.speed == pytest.approx((1 - 2 * 0.3) / math.sqrt(2), abs=1e-3)

    def test_period_difference_has_no_floor(self, cos_coeff, cubic03, monkeypatch):
        # a = 2 + cos, tail_floor 1e-6: recentered, the differences cycled
        # between 2.7e-10 and 2.8e-9 and never met 1e-11
        monkeypatch.setattr(fr, "TOL_PULS", 1e-11)
        inst = pr.ProblemInstance(coeff=cos_coeff, reaction=cubic03, L=2.0)
        front = fr.compute_pulsating_front(
            inst, fr.FrontRunConfig(nodes_per_period=32, tail_floor=1e-6), fr.Budget(200.0))
        defects = front.diagnostics["period_defects"]
        assert defects[-2] < 1e-11 and defects[-1] < 1e-11
        assert front.diagnostics["t_final"] < 100.0

    def test_large_period_front_propagates(self, unit_coeff, cubic03):
        # L = 40 exceeds the default halfwidth: the grid keeps two periods on
        # each side of the cell, so the defect window exists (with one period
        # a side every period was dropped and the budget spent in silence)
        inst = pr.ProblemInstance(coeff=unit_coeff, reaction=cubic03, L=40.0)
        rec = fr.classify_quenching(inst, fr.FrontRunConfig(), fr.Budget(900.0))
        assert rec.kind == fr.PROPAGATING
        assert abs(rec.c - (1 - 2 * 0.3) / math.sqrt(2)) < 1e-2
        assert rec.evidence["n_nodes"] == 5 * 64 + 1

    def test_no_defect_window_fails_before_stepping(self, unit_coeff, cubic03,
                                                    monkeypatch):
        # three nodes per period at L = 40: the margins leave no defect
        # window, a coverage failure before the first step (it used to be
        # classified as a pinned front after 100 time units)
        def no_step(self, *args):
            raise AssertionError("the run took a step")

        monkeypatch.setattr(fr._RunState, "run", no_step)
        inst = pr.ProblemInstance(coeff=unit_coeff, reaction=cubic03, L=40.0)
        with pytest.raises(fr.FrontNotConverged) as err:
            fr.compute_pulsating_front(inst, fr.FrontRunConfig(nodes_per_period=3),
                                       fr.Budget(900.0))
        assert err.value.diagnostics["reason"] == "coverage"
        assert err.value.diagnostics["t_final"] == 0.0


class TestDecayFits:
    def test_synthetic_exponential(self):
        xi = np.linspace(-30, 30, 1201)
        prof = np.minimum(1.0, np.exp(-2.0 * xi))
        prof = np.where(xi < 0, 1.0 - np.minimum(1.0, np.exp(2.0 * xi)) * 0.0, prof)
        # assemble an explicit two-sided exponential profile
        prof = np.where(xi >= 0, np.exp(-2.0 * xi), 1.0 - 0.5 * np.exp(2.0 * xi))
        mu1, mu2 = fr.fit_tail_rates(xi, prof)
        assert mu1 == pytest.approx(2.0, abs=1e-3)
        assert mu2 == pytest.approx(2.0, abs=1e-3)

    def test_front_tails_match_characteristic_roots(self, homog_front):
        c = homog_front.speed
        lam1 = (c + np.sqrt(c * c + 4 * 0.3)) / 2
        lam2 = (-c + np.sqrt(c * c + 4 * 0.7)) / 2
        assert homog_front.mu1_fit == pytest.approx(lam1, rel=0.02)
        assert homog_front.mu2_fit == pytest.approx(lam2, rel=0.02)

    def test_short_tail_errors(self, homog_front):
        keep = np.abs(homog_front.xi) < 3.0
        with pytest.raises(ValueError):
            fr.fit_tail_rates(homog_front.xi[keep], homog_front.phi.mean(axis=1)[keep])


class TestWindowTails:
    """The window's ends impose the linear tails; the front carries them past
    its lattice, and the tail fits still measure them."""

    def test_interp_unchanged_inside_lattice(self, homog_front):
        # bitwise the bilinear interpolation of the lattice, periodic in y, at
        # every point of the lattice's span
        f = homog_front
        xi = np.linspace(f.xi[0], f.xi[-1], 1001)[:, None]
        y = np.linspace(-1.25, 2.0, 37)[None, :]
        m = len(f.y)
        s = np.clip((xi - f.xi[0]) / (f.xi[1] - f.xi[0]), 0.0, len(f.xi) - 1 - 1e-12)
        i = s.astype(int)
        wi = s - i
        sy = np.mod(y, 1.0) * m
        j = np.minimum(sy.astype(int), m - 1)
        wj = sy - j
        jp = (j + 1) % m
        p = f.phi
        want = ((1 - wi) * ((1 - wj) * p[i, j] + wj * p[i, jp])
                + wi * ((1 - wj) * p[i + 1, j] + wj * p[i + 1, jp]))
        got = f.interp(xi, y)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interp_continues_by_whole_periods(self, homog_front, k):
        # phi(xi + kL, y) = e^(-mu1 kL) phi(xi, y) past the right end and
        # 1 - phi(xi - kL, y) = e^(-mu2 kL) (1 - phi(xi, y)) past the left
        f = homog_front
        h = f.xi[1] - f.xi[0]
        L = len(f.y) * h
        mu1, mu2 = f.tail_mu
        y = np.linspace(0.0, 1.0, 23)
        right = f.xi[-1] - 0.37 * h
        left = f.xi[0] + 0.37 * h
        assert f.interp(right + k * L, y) == pytest.approx(
            np.exp(-mu1 * k * L) * f.interp(right, y), rel=1e-9)
        assert 1.0 - f.interp(left - k * L, y) == pytest.approx(
            np.exp(-mu2 * k * L) * (1.0 - f.interp(left, y)), rel=1e-9)

    def test_tail_fit_reads_one_period_inside_the_window(self, homog_inst, monkeypatch):
        # the lattice the fit reads, and every node each lattice point is
        # read from, lie a period or more inside the window's ends
        seen = {}
        extract, fit = fr.extract_profile, fr.fit_tail_rates

        def spy_extract(snaps, c, margin_nodes):
            out = extract(snaps, c, margin_nodes)
            seen.update(grid=snaps.grid, xi=out[0], sgn=1 if c > 0 else -1)
            return out

        def spy_fit(xi, prof):
            seen["fit_points"] = len(xi)
            return fit(xi, prof)

        monkeypatch.setattr(fr, "extract_profile", spy_extract)
        monkeypatch.setattr(fr, "fit_tail_rates", spy_fit)
        front = fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        g, xi, L = seen["grid"], seen["xi"], homog_inst.L
        assert seen["sgn"] == 1 and seen["fit_points"] == len(xi) == len(front.xi)
        # lattice point p is read at the nodes p to p + one period
        assert xi[0] >= g.x_min + L and xi[-1] + L <= g.x_max - L
        assert front.mu1_fit is not None and front.mu2_fit is not None

    def test_wrong_end_rate_moves_the_fit(self, homog_inst, homog_front, monkeypatch):
        # ends imposing 0.8 mu move each fitted rate by more than the correct
        # run's fit deviates from the closed-form root at its speed: the fit
        # measures the front, not the rate the ends impose
        def closed_form(front):
            c = front.speed
            return (c + math.sqrt(c * c + 4 * 0.3)) / 2, (-c + math.sqrt(c * c + 4 * 0.7)) / 2

        tails = fr.window_tails
        monkeypatch.setattr(fr, "window_tails", lambda *args, **kwargs: tuple(
            dataclasses.replace(t, mu=0.8 * t.mu) for t in tails(*args, **kwargs)))
        wrong = fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        assert wrong.tail_mu == pytest.approx(tuple(0.8 * m for m in homog_front.tail_mu))
        for fit, fit_wrong, root in zip((homog_front.mu1_fit, homog_front.mu2_fit),
                                        (wrong.mu1_fit, wrong.mu2_fit), closed_form(homog_front)):
            assert abs(fit_wrong - fit) > abs(fit - root)

    def test_coarse_cells_are_inconclusive(self, unit_coeff, cubic03):
        # L = 40 on 16 nodes per period: the tail operator is no M-matrix on
        # the window's cells, so the run is Inconclusive with reason "solver"
        # before its first step (a scan goes on past it)
        inst = pr.ProblemInstance(coeff=unit_coeff, reaction=cubic03, L=40.0)
        rec = fr.classify_quenching(inst, fr.FrontRunConfig(nodes_per_period=16),
                                    fr.Budget(900.0))
        assert rec.kind == fr.INCONCLUSIVE and rec.evidence["reason"] == "solver"
        assert "window tail" in rec.evidence["message"]


class TestSpeedIdentity:
    def test_homogeneous_mismatch(self, homog_front, homog_inst):
        hd = pr.homogenized_data(homog_inst.coeff, homog_inst.reaction)
        rep = fr.verify_speed_identity(homog_front, hd)
        assert rep.mismatch < 0.02
        assert np.sign(rep.c_identity) == np.sign(rep.reaction_integral)

    def test_gradient_integral_value(self, homog_front):
        # exact tanh profile: integral of (phi')^2 = 1/(6 sqrt 2)
        hd_d = 1.0 / (6.0 * np.sqrt(2.0))
        h = homog_front.xi[1] - homog_front.xi[0]
        dphi = np.gradient(homog_front.phi.mean(axis=1), h)
        d = np.trapezoid(dphi**2, dx=h)
        assert d == pytest.approx(hd_d, rel=0.01)

    def test_stationary_rejected(self):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=1.0)
        hd = pr.homogenized_data(inst.coeff, inst.reaction)
        front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(), fr.Budget(400.0))
        with pytest.raises(ValueError):
            fr.verify_speed_identity(front, hd)


class TestClassification:
    def test_propagating_record(self, homog_inst):
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        assert rec.kind == fr.PROPAGATING
        assert rec.c > 0
        assert "pulsating_defect" in rec.evidence

    def test_tiny_budget_inconclusive(self, homog_inst):
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(1.0))
        assert rec.kind == fr.INCONCLUSIVE
        assert rec.c is None
        assert rec.evidence["reason"] == "budget"

    def test_solver_error_inconclusive(self, homog_inst, monkeypatch):
        # dt*K = 3.4 makes the Stepper raise SolverError inside the front run
        monkeypatch.setattr(fr, "choose_dt", lambda *args: 1.0)
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(10.0))
        assert rec.kind == fr.INCONCLUSIVE
        assert rec.c is None and rec.front is None
        assert rec.evidence["reason"] == "solver"
        assert rec.evidence["reason"] in fr.REASONS
        assert "dt*K" in rec.evidence["message"]


class TestScan:
    @pytest.mark.slow
    def test_homogeneous_grid_speed_constant(self, homog_inst):
        pts = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [0.5, 1.0, 2.0],
                        fr.FrontRunConfig(tail_floor=1e-6), fr.Budget(400.0))
        assert all(p.record.kind == fr.PROPAGATING for p in pts)
        cs = [p.record.c for p in pts]
        unc = sum(p.record.front.speed_estimate.uncertainty for p in pts)
        assert max(cs) - min(cs) <= max(2.0 * unc, 2e-3)

    @pytest.mark.slow
    def test_zero_mean_oscillating_theta_pins(self):
        # zero reaction integral forbids nonzero speed at any period
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        rx = pr.make_cubic(pr.HarmonicCurve(0.5, 0.2))
        pts = fr.scan_E(coeff, rx, [0.2], fr.FrontRunConfig(tail_floor=1e-6),
                        fr.Budget(500.0))
        assert pts[0].record.kind == fr.STATIONARY
        assert pts[0].record.evidence["stationary_residual"] < 1e-6

    def test_solver_failure_does_not_abort_scan(self, homog_inst, monkeypatch):
        monkeypatch.setattr(fr, "choose_dt", lambda *args: 1.0)
        pts = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [0.5, 1.0],
                        fr.FrontRunConfig(), fr.Budget(10.0))
        assert [p.L for p in pts] == [0.5, 1.0]
        assert all(p.record.kind == fr.INCONCLUSIVE for p in pts)
        assert all(p.record.evidence["reason"] == "solver" for p in pts)

    def test_coverage_failure_does_not_abort_scan(self, homog_inst, monkeypatch):
        def no_coverage(*args, **kwargs):
            raise ValueError("insufficient snapshot coverage for some lattice points")

        monkeypatch.setattr(fr, "extract_profile", no_coverage)
        pts = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [0.5, 1.0],
                        fr.FrontRunConfig(tail_floor=1e-4), fr.Budget(300.0))
        assert [p.L for p in pts] == [0.5, 1.0]
        assert all(p.record.kind == fr.INCONCLUSIVE for p in pts)
        assert all(p.record.evidence["reason"] == "coverage" for p in pts)
        assert all("coverage" in p.record.evidence["message"] for p in pts)

    def test_empty_grid(self, homog_inst):
        assert fr.scan_E(homog_inst.coeff, homog_inst.reaction, [],
                         fr.FrontRunConfig(), fr.Budget(10.0)) == []

    @pytest.mark.slow
    def test_worker_pool_matches_serial(self, homog_inst):
        cfg = fr.FrontRunConfig(tail_floor=1e-5)
        serial = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [1.0],
                           cfg, fr.Budget(300.0), workers=1)
        pooled = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [1.0],
                           cfg, fr.Budget(300.0), workers=2)
        assert pooled[0].record.kind == serial[0].record.kind
        assert pooled[0].record.c == serial[0].record.c

    def test_decreasing_grid_rejected(self, homog_inst):
        with pytest.raises(ValueError):
            fr.scan_E(homog_inst.coeff, homog_inst.reaction, [2.0, 1.0])

    def test_csv_row_reason_only_when_inconclusive(self, homog_inst, homog_front):
        done = fr.ClassificationRecord(kind=fr.PROPAGATING, c=homog_front.speed,
                                       evidence=dict(homog_front.diagnostics),
                                       front=homog_front)
        spent = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(1.0))
        header = fr.SWEEP_CSV_HEADER.split(",")
        assert header[-2:] == ["t_final", "reason"]
        cols = dict(zip(header, fr.SweepPoint(L=1.0, record=done).csv_row().split(",")))
        assert float(cols["t_final"]) == pytest.approx(done.evidence["t_final"], rel=1e-9)
        assert cols["reason"] == ""
        cols = dict(zip(header, fr.SweepPoint(L=1.0, record=spent).csv_row().split(",")))
        assert cols["classification"] == fr.INCONCLUSIVE
        assert float(cols["t_final"]) == pytest.approx(1.0, abs=spent.evidence["dt"])
        assert cols["reason"] == "budget"

    def test_csv_row_format(self, homog_inst):
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        row = fr.SweepPoint(L=1.0, record=rec).csv_row()
        cols = row.split(",")
        assert len(cols) == fr.SWEEP_CSV_HEADER.count(",") + 1
        assert cols[1] == fr.PROPAGATING


def test_speed_uniqueness_between_data(homog_inst, homog_front, monkeypatch):
    # two distinct admissible initial data must yield the same speed: the
    # reference front's limit-front datum and a sharp step at the same interface
    monkeypatch.setattr(fr, "front_initial_datum", lambda grid, interface, rate:
                        np.where(grid.nodes <= interface, 1.0, 0.0))
    a = homog_front
    b = fr.compute_pulsating_front(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
    tol = a.speed_estimate.uncertainty + b.speed_estimate.uncertainty
    assert abs(a.speed - b.speed) <= max(tol, 1e-4)


def test_excursion_diagnostics_reported(homog_front):
    # front runs stay essentially inside [0, 1]
    assert homog_front.diagnostics["excursion"] == 0.0
    lo, hi = homog_front.diagnostics["range_seen"]
    assert lo > -1e-6 and hi < 1.0 + 1e-6


def test_front_run_settables():
    # the step (solver.choose_dt), the domain (default_halfwidth) and the
    # limit-front datum (limit_front_rate) of a front run are derived, never
    # configured
    assert [f.name for f in dataclasses.fields(fr.FrontRunConfig)] == \
        ["nodes_per_period", "tail_floor"]
