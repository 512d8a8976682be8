import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsefront.fronts as fr
import pulsefront.homogenize as hg
import pulsefront.profiles as pr


def homog_for(theta=0.3, a_mean=1.0, a_amp=0.0):
    coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(a_mean, a_amp))
    return pr.homogenized_data(coeff, pr.make_cubic(theta))


def quintic_homog(zeros):
    # fbar = u (1 - u) (u - z1) (u - z2) (u - z3): three interior zeros
    f = -np.polynomial.Polynomial.fromroots((0.0, 1.0) + tuple(zeros))
    return pr.HomogenizedData(a_h=1.0, fbar=pr.FbarCurve(f.coef))


def homogenized_decay_rates(front, homog):
    """Characteristic-root exponents cross-checked against tail fits."""
    l1, l2 = pr.characteristic_rates(homog.a_h, front.c0, homog.slope0, homog.slope1)
    # below ~1e-7 the trajectory feels the error of c0 (up to brentq's xtol,
    # 1e-10), so the fits see only the lattice where both tails exceed 1e-6
    keep = (front.phi > 1e-6) & (front.phi < 1.0 - 1e-6)
    fit1, fit2 = fr.fit_tail_rates(front.xi[keep], front.phi[keep])
    gap = max(abs(fit1 - l1) / l1, abs(fit2 - l2) / l2)
    if gap > 0.02:
        raise RuntimeError(
            f"tail fits deviate {gap:.1%} (> 2%) from the characteristic roots")
    return l1, l2


class TestShooting:
    def test_speed_oracle_unit_diffusivity(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        assert front.c0 == pytest.approx(0.4 / np.sqrt(2.0), abs=1e-8)

    def test_profile_matches_exact_solution(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        xi = np.linspace(-12, 12, 401)
        exact = 1.0 / (1.0 + np.exp(xi / np.sqrt(2.0)))
        assert np.max(np.abs(front(xi) - exact)) < 1e-6

    def test_symmetric_zero_speed(self):
        front = hg.solve_homogenized_front(homog_for(0.5))
        assert front.c0 == 0.0
        xi = np.linspace(-10, 10, 301)
        exact = 1.0 / (1.0 + np.exp(xi / np.sqrt(2.0)))
        assert np.max(np.abs(front(xi) - exact)) < 1e-6

    def test_zero_integral_without_odd_symmetry_stands(self):
        # fbar = u (1 - u) (u - 8/15) (1 + u) has zero integral but is not odd
        # about 1/2: c0 is exactly 0 and the profile is the standing orbit,
        # a_H phi'^2 / 2 = int_phi^1 fbar
        f = -np.polynomial.Polynomial.fromroots((0.0, 1.0, 8.0 / 15.0, -1.0))
        F = f.integ()
        hd = pr.HomogenizedData(a_h=1.0, fbar=pr.FbarCurve(f.coef))
        front = hg.solve_homogenized_front(hd)
        assert front.c0 == 0.0
        assert np.all(np.diff(front.phi) < 0.0)
        assert front(0.0) == pytest.approx(0.5, abs=1e-12)
        dphi = front._spline(front.xi, 1)
        assert np.max(np.abs(0.5 * dphi**2 - (F(1.0) - F(front.phi)))) < 1e-6

    def test_diffusivity_rescaling(self):
        # a = 2 + cos 2 pi y has a_H = sqrt(3), and the cubic's limit speed is
        # sqrt(a_H / 2) (1 - 2 theta); two solves are bitwise identical
        hd = homog_for(0.3, 2.0, 1.0)
        front, again = (hg.solve_homogenized_front(hd) for _ in range(2))
        assert front.c0 == pytest.approx(np.sqrt(np.sqrt(3.0) / 2) * 0.4, rel=0.0, abs=1e-10)
        assert front.c0 == again.c0
        assert np.array_equal(front.xi, again.xi)
        assert np.array_equal(front.phi, again.phi)

    def test_bitwise_determinism(self):
        hd = homog_for(0.35)
        a = hg.solve_homogenized_front(hd)
        b = hg.solve_homogenized_front(hd)
        assert a.c0 == b.c0
        assert np.array_equal(a.phi, b.phi)

    def test_strictly_decreasing_profile(self):
        front = hg.solve_homogenized_front(homog_for(0.4))
        assert np.all(np.diff(front.phi) < 0.0)

    def test_speed_monotone_in_theta(self):
        speeds = [hg.solve_homogenized_front(homog_for(th)).c0
                  for th in (0.25, 0.35, 0.45, 0.55, 0.65)]
        assert all(b < a for a, b in zip(speeds, speeds[1:]))

    def test_negative_speed_branch(self):
        front = hg.solve_homogenized_front(homog_for(0.7))
        assert front.c0 == pytest.approx(-0.4 / np.sqrt(2.0), abs=1e-8)

    @pytest.mark.parametrize("theta, mean_theta, scale, a_curve, a_h", [
        (0.25, 0.25, 1.0, pr.HarmonicCurve(1.0), 1.0),
        (0.7, 0.7, 1.0, pr.HarmonicCurve(1.0), 1.0),
        (pr.HarmonicCurve(0.35, 0.1), 0.35, 1.0, pr.HarmonicCurve(1.0), 1.0),
        (0.3, 0.3, 2.0, pr.HarmonicCurve(1.0), 1.0),
        (0.3, 0.3, 1.0, pr.HarmonicCurve(2.0, 1.0), np.sqrt(3.0)),
    ])
    def test_cubic_family_closed_form_speed(self, theta, mean_theta, scale, a_curve, a_h):
        # fbar = scale u (1 - u) (u - <theta>) exactly
        hd = pr.homogenized_data(pr.CoefficientProfile.from_curve(a_curve),
                                 pr.make_cubic(theta, scale=scale))
        exact = np.sqrt(scale * a_h / 2.0) * (1.0 - 2.0 * mean_theta)
        assert abs(hg.solve_homogenized_front(hd).c0 - exact) < 1e-9

    # a = a0 + c cos + s sin is a0 + r cos(2 pi y - phase), whose harmonic mean
    # is sqrt(a0^2 - r^2); theta's cosine averages out of fbar
    @given(st.floats(0.5, 3.0), st.floats(0.0, 0.79), st.floats(0.0, 2.0 * np.pi),
           st.floats(0.2, 0.45), st.floats(-0.15, 0.15), st.floats(0.2, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_harmonic_family_closed_form_speed(self, a0, rel_r, phase, theta0, theta_amp,
                                               scale):
        c, s = rel_r * a0 * np.cos(phase), rel_r * a0 * np.sin(phase)
        hd = pr.homogenized_data(pr.CoefficientProfile.from_curve(pr.HarmonicCurve(a0, c, s)),
                                 pr.make_cubic(pr.HarmonicCurve(theta0, theta_amp), scale=scale))
        a_h = np.sqrt(a0 * a0 - (c * c + s * s))
        exact = np.sqrt(scale * a_h / 2.0) * (1.0 - 2.0 * theta0)
        assert abs(hg.solve_homogenized_front(hd).c0 - exact) < 1e-9

    def test_quintic_settling_on_interior_zero_has_no_connection(self):
        # the mismatch vanishes only because neither orbit reaches phi = 1/2
        with pytest.raises(hg.NoConnection, match="neither saddle orbit reaches phi = 1/2") as err:
            hg.solve_homogenized_front(quintic_homog((0.15, 0.45, 0.8)))
        assert err.value.reason == "no-connection"
        assert err.value.reason in fr.REASONS

    def test_quintic_connection_speed(self):
        front = hg.solve_homogenized_front(quintic_homog((0.2, 0.5, 0.7)))
        assert front.c0 == pytest.approx(0.0319634478, abs=1e-9)


class TestDecayRates:
    def test_rate_at_zero_speed(self):
        hd = homog_for(0.5)
        l1, l2 = hg.characteristic_rates(hd.a_h, 0.0, hd.slope0, hd.slope1)
        assert l1 == pytest.approx(np.sqrt(0.5), rel=1e-9)

    def test_asymmetric_rates_coincide_for_cubic(self):
        hd = homog_for(0.3)
        front = hg.solve_homogenized_front(hd)
        l1, l2 = homogenized_decay_rates(front, hd)
        assert l1 == pytest.approx(1 / np.sqrt(2.0), rel=1e-6)
        assert l2 == pytest.approx(1 / np.sqrt(2.0), rel=1e-6)

    def test_root_formula(self):
        l1, l2 = hg.characteristic_rates(1.0, 0.2828, -0.3, -0.7)
        assert l1 == pytest.approx((0.2828 + np.sqrt(0.2828**2 + 1.2)) / 2, rel=1e-12)
        assert l2 == pytest.approx((-0.2828 + np.sqrt(0.2828**2 + 2.8)) / 2, rel=1e-12)


def trapezoid_gap2(xi, phi, phi0):
    # reference: the trapezoid integral column by column against phi0(xi - s)
    def gap2(s):
        d = phi - phi0(xi - s)[:, None]
        return float(np.mean(np.trapezoid(d * d, x=xi, axis=0)))
    return gap2


class TestAlignment:
    @pytest.fixture(scope="class")
    def lattice(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        xi = np.linspace(-20, 20, 801)
        y = np.arange(16) / 16
        noise = 1e-4 * np.random.default_rng(3).standard_normal((len(xi), len(y)))
        phi = front(xi[:, None] - 0.9 - 0.1 * np.cos(2 * np.pi * y)[None, :]) + noise
        return front, xi, phi

    # the objective splits the column mean into the spread about the mean
    # column plus the mean column's gap, so it sums in another order than
    # the per-column integrals: the two agree to rounding, the shift to the
    # minimizer's tolerance
    def test_gap_matches_per_column_trapezoid(self, lattice, monkeypatch):
        front, xi, phi = lattice
        golden, objectives = hg._golden_min, []

        def recorded(f, *args, **kwargs):
            objectives.append(f)
            return golden(f, *args, **kwargs)
        monkeypatch.setattr(hg, "_golden_min", recorded)
        hg.align_profiles(xi, phi, front)
        gap2, ref = objectives[0], trapezoid_gap2(xi, phi, front)
        h = xi[1] - xi[0]
        shifts = (-100.0, 100.0, -45.0, 45.0, h, -h, 0.0, 1e-9, -1e-9,
                  *np.random.default_rng(4).uniform(-45.0, 45.0, 40))
        assert len(objectives) == 1 and len(shifts) == 49
        for s in shifts:
            assert gap2(s) == pytest.approx(ref(s), rel=1e-12, abs=0.0), s

    def test_alignment_equals_per_column_trapezoid(self, lattice, monkeypatch):
        front, xi, phi = lattice
        s_fast, gap_fast = hg.align_profiles(xi, phi, front)
        golden, ref = hg._golden_min, trapezoid_gap2(xi, phi, front)
        monkeypatch.setattr(hg, "_golden_min",
                            lambda f, lo, hi, tol: golden(ref, lo, hi, tol=tol))
        s_ref, gap_ref = hg.align_profiles(xi, phi, front)
        assert s_fast == pytest.approx(s_ref, rel=0.0, abs=1e-8)
        assert gap_fast == pytest.approx(gap_ref, rel=1e-12, abs=0.0)

    # phi0 is translated exactly, with no lattice interpolation, so an exact
    # translate aligns to rounding
    def test_identity(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        xi = np.linspace(-20, 20, 801)
        phi = np.repeat(front(xi)[:, None], 4, axis=1)
        s, gap = hg.align_profiles(xi, phi, front)
        assert abs(s) < 1e-8
        assert gap < 1e-9

    def test_pure_translate(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        xi = np.linspace(-20, 20, 801)
        phi = np.repeat(front(xi - 1.0)[:, None], 4, axis=1)
        s, gap = hg.align_profiles(xi, phi, front)
        assert s == pytest.approx(1.0, abs=1e-8)
        assert gap < 1e-9

    def test_shift_invariance(self):
        front = hg.solve_homogenized_front(homog_for(0.3))
        xi = np.linspace(-20, 20, 801)
        phi1 = np.repeat(front(xi - 0.7)[:, None], 4, axis=1)
        phi2 = np.repeat(front(xi - 1.7)[:, None], 4, axis=1)
        s1, g1 = hg.align_profiles(xi, phi1, front)
        s2, g2 = hg.align_profiles(xi, phi2, front)
        assert abs(s1 - 0.7) < 1e-8 and abs(s2 - 1.7) < 1e-8
        assert g1 < 1e-9 and g2 < 1e-9


class TestSweepGuards:
    def test_zero_speed_refused(self):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        rx = pr.make_cubic(0.5)
        with pytest.raises(ValueError):
            hg.homogenization_sweep(coeff, rx, [0.4, 0.2])

    def test_increasing_list_refused(self):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        rx = pr.make_cubic(0.3)
        with pytest.raises(ValueError):
            hg.homogenization_sweep(coeff, rx, [0.2, 0.4])


class TestSweepFailures:
    @pytest.fixture(scope="class")
    def cubic(self):
        return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0)), pr.make_cubic(0.3)

    def test_numerical_failure_recorded(self, cubic, monkeypatch):
        coeff, rx = cubic

        def not_converged(*args, **kwargs):
            raise fr.FrontNotConverged("budget spent", {})
        monkeypatch.setattr(hg, "compute_pulsating_front", not_converged)
        records, _ = hg.homogenization_sweep(coeff, rx, [0.4, 0.2])
        assert [L for L, _ in records] == [0.4, 0.2]
        assert all(isinstance(exc, fr.FrontNotConverged) for _, exc in records)

    def test_programming_error_propagates(self, cubic, monkeypatch):
        coeff, rx = cubic

        def broken(*args, **kwargs):
            raise TypeError("bad call")
        monkeypatch.setattr(hg, "compute_pulsating_front", broken)
        with pytest.raises(TypeError):
            hg.homogenization_sweep(coeff, rx, [0.4, 0.2])


def test_homogeneous_instance_sweep_matches_everywhere():
    # x-independent coefficients: c_L = c0 for every L, gaps at solver noise
    coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
    rx = pr.make_cubic(0.3)
    import pulsefront.fronts as fr
    records, front0 = hg.homogenization_sweep(
        coeff, rx, [1.0, 0.5], cfg=fr.FrontRunConfig(tail_floor=1e-6),
        budget=fr.Budget(300.0))
    for rec in records:
        assert not isinstance(rec, tuple)
        assert rec.c_gap_rel < 5e-3
        assert rec.profile_gap < 5e-3
