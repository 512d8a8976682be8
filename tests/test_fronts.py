import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.profiles as pr
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

    def test_exact_translate_period_matching(self, homog_inst):
        # synthetic snapshots of a profile translating at c: the defect
        # minimizer recovers T = L/c to grid accuracy, and the period speed
        # agrees with the level speed c within its uncertainty
        c = 0.25
        grid = build_grid(homog_inst, 10.0, 64)
        t0, dt_snap, k = 0.0, 0.05, 120
        U = np.empty((k + 1, grid.n))
        for i in range(k + 1):
            U[i] = 1.0 / (1.0 + np.exp((grid.nodes - c * (t0 + i * dt_snap)) / np.sqrt(2)))
        snaps = fr.SnapshotSeries(t0=t0, dt_snap=dt_snap, U=U, grid=grid)
        t_ref = snaps.t0 + 0.02 * (snaps.t1 - snaps.t0)
        T_star, _, width = fr.min_shift_defect(snaps, t_ref, 1.0 / c, 8)
        c_period = 1.0 / T_star
        assert c_period == pytest.approx(c, rel=1e-3)
        assert abs(c_period - c) <= fr._period_uncertainty(1.0, T_star, width, dt_snap)


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
        coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
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
        coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
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

    def test_solver_error_inconclusive(self, homog_inst):
        # dt*K = 3.4 makes the Stepper raise SolverError inside the front run
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(dt=1.0), fr.Budget(10.0))
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
        coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
        rx = pr.make_cubic(pr.CosineCurve(0.5, 0.2))
        pts = fr.scan_E(coeff, rx, [0.2], fr.FrontRunConfig(tail_floor=1e-6),
                        fr.Budget(500.0))
        assert pts[0].record.kind == fr.STATIONARY
        assert pts[0].record.evidence["stationary_residual"] < 1e-6

    def test_solver_failure_does_not_abort_scan(self, homog_inst):
        pts = fr.scan_E(homog_inst.coeff, homog_inst.reaction, [0.5, 1.0],
                        fr.FrontRunConfig(dt=1.0), fr.Budget(10.0))
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

    def test_csv_row_format(self, homog_inst):
        rec = fr.classify_quenching(homog_inst, fr.FrontRunConfig(), fr.Budget(300.0))
        row = fr.SweepPoint(L=1.0, record=rec).csv_row()
        cols = row.split(",")
        assert len(cols) == fr.SWEEP_CSV_HEADER.count(",") + 1
        assert cols[1] == fr.PROPAGATING


def test_speed_uniqueness_between_data(homog_inst):
    # two distinct admissible initial data must yield the same speed
    cfg_a = fr.FrontRunConfig(initial_style="tanh")
    cfg_b = fr.FrontRunConfig(initial_style="step")
    a = fr.compute_pulsating_front(homog_inst, cfg_a, fr.Budget(300.0))
    b = fr.compute_pulsating_front(homog_inst, cfg_b, fr.Budget(300.0))
    tol = a.speed_estimate.uncertainty + b.speed_estimate.uncertainty
    assert abs(a.speed - b.speed) <= max(tol, 1e-4)


def test_excursion_diagnostics_reported(homog_front):
    # front runs stay essentially inside [0, 1]
    assert homog_front.diagnostics["excursion"] == 0.0
    lo, hi = homog_front.diagnostics["range_seen"]
    assert lo > -1e-6 and hi < 1.0 + 1e-6
