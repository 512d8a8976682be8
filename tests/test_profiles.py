from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsefront.profiles as pr
from test_solver import diffusion_inst


def const_coeff(d=1.0):
    return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(d))


def cos_coeff(mean=2.0, amp=1.0):
    return pr.CoefficientProfile.from_curve(pr.HarmonicCurve(mean, amp))


def locate_theta(reaction_f, y, delta):
    """The sign change of f(y, .) in (delta, 1-delta), by bisection."""
    lo, hi = delta, 1.0 - delta
    assert float(reaction_f(np.asarray(y), np.asarray(lo))) < 0.0 \
        < float(reaction_f(np.asarray(y), np.asarray(hi)))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(reaction_f(np.asarray(y), np.asarray(mid))) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Violation:
    kind: str
    y: float
    u: float
    value: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def validate_hypotheses(reaction: pr.ReactionProfile, n_samples: int = 128) -> ValidationReport:
    """Check the bistable sign pattern and the stability margins on a grid: the
    grid oracle for the margins make_cubic derives analytically.

    ``n_samples`` is the resolution per unit in each of y and u (>= 16).  The
    report lists every violation found (capped at 64); an empty
    list means PASS.  Non-finite sampler output rejects the profile outright.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16 per unit")
    ys = np.linspace(0.0, 1.0, n_samples, endpoint=False)
    us = np.linspace(0.0, 1.0, n_samples + 1)
    YY, UU = np.meshgrid(ys, us, indexing="ij")
    F = np.asarray(reaction.f(YY, UU), dtype=float)
    TH = np.asarray(reaction.theta(ys), dtype=float)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(TH))):
        raise pr.ProfileError("reaction sampler returned non-finite values")
    gamma, delta = reaction.gamma, reaction.delta
    out: list[Violation] = []

    def add(kind, y, u, value, detail):
        if len(out) < 64:
            out.append(Violation(kind, float(y), float(u), float(value), detail))

    ztol = 1e-10 * max(1.0, float(np.max(np.abs(F))))
    for i, y in enumerate(ys):
        th = TH[i]
        if not (delta < th < 1.0 - delta):
            add("theta-range", y, th, th, f"need delta < theta < 1-delta with delta={delta}")
        for u0, name in ((0.0, "f(y,0)"), (1.0, "f(y,1)")):
            v = float(reaction.f(np.asarray(y), np.asarray(u0)))
            if abs(v) > ztol:
                add("zero", y, u0, v, f"{name} != 0")
        vth = float(reaction.f(np.asarray(y), np.asarray(th)))
        if abs(vth) > 1e-8 * max(1.0, float(np.max(np.abs(F)))):
            add("zero", y, th, vth, "f(y,theta(y)) != 0")
        for j, u in enumerate(us):
            v = F[i, j]
            if 0.0 < u < th and not v < 0.0:
                add("sign-low", y, u, v, "f must be < 0 on (0, theta)")
            elif th < u < 1.0 and not v > 0.0:
                add("sign-high", y, u, v, "f must be > 0 on (theta, 1)")
            if 0.0 < u <= delta and v > -gamma * u + ztol:
                add("margin-0", y, u, v, f"f(y,u) <= -gamma*u fails on [0,delta], gamma={gamma}")
            if 1.0 - delta <= u < 1.0 and v < gamma * (1.0 - u) - ztol:
                add("margin-1", y, u, v, f"f(y,u) >= gamma*(1-u) fails on [1-delta,1]")
    return ValidationReport(violations=tuple(out))


class TestValidateHypotheses:
    def test_cubic_passes(self):
        rx = pr.make_cubic(0.3, gamma=0.05, delta=0.05)
        rep = validate_hypotheses(rx, n_samples=32)
        assert rep.passed
        assert rep.violations == ()

    def test_delta_exceeding_theta_fails_between(self):
        # delta = 0.4 > theta = 0.3 breaks the margin condition on (0.3, 0.4)
        base = pr.make_cubic(0.3, gamma=0.05, delta=0.05)
        bad = pr.ReactionProfile(f=base.f, df=base.df, theta=base.theta,
                                 gamma=0.05, delta=0.4, lip_k=base.lip_k)
        rep = validate_hypotheses(bad, n_samples=64)
        assert not rep.passed
        margin_hits = [v for v in rep.violations if v.kind == "margin-0"
                       and 0.3 < v.u < 0.4 + 1e-9]
        assert margin_hits

    def test_zero_reaction_fails(self):
        zero = pr.ReactionProfile(
            f=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
            df=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
            theta=pr.HarmonicCurve(0.5), gamma=0.1, delta=0.1, lip_k=1.0)
        rep = validate_hypotheses(zero, n_samples=32)
        assert not rep.passed

    def test_nonfinite_sampler_rejected(self):
        nan = pr.ReactionProfile(
            f=lambda y, u: np.full_like(np.asarray(u, dtype=float), np.nan),
            df=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
            theta=pr.HarmonicCurve(0.5), gamma=0.1, delta=0.1, lip_k=1.0)
        with pytest.raises(pr.ProfileError):
            validate_hypotheses(nan, n_samples=32)

    def test_sample_count_floor(self):
        rx = pr.make_cubic(0.3)
        with pytest.raises(ValueError):
            validate_hypotheses(rx, n_samples=8)


class TestExtendReaction:
    # make_cubic's f is the cubic on [0, 1], continued by its end slopes
    def test_negative_side_slope(self):
        # d_u f(y, 0) = -theta for the cubic, so f(-0.1) = 0.03
        rx = pr.make_cubic(0.3)
        val = float(rx.f(np.asarray(0.2), np.asarray(-0.1)))
        assert val == pytest.approx(0.03, abs=1e-12)

    def test_splice_continuity_at_zero(self):
        rx = pr.make_cubic(0.37)
        assert float(rx.f(np.asarray(0.1), np.asarray(0.0))) == 0.0

    def test_above_one_slope(self):
        rx = pr.make_cubic(0.3)
        val = float(rx.f(np.asarray(0.9), np.asarray(1.1)))
        assert val == pytest.approx(-0.07, abs=1e-12)

    def test_agrees_inside(self):
        rx = pr.make_cubic(0.41)
        y = np.linspace(0, 1, 33)
        u = np.linspace(0, 1, 17)
        np.testing.assert_allclose(rx.f(y[:, None], u[None, :]),
                                   np.broadcast_to(u * (1 - u) * (u - 0.41), (33, 17)),
                                   atol=1e-14)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_global_lipschitz(self, u1, u2):
        rx = pr.make_cubic(0.3)
        y = np.asarray(0.25)
        d = abs(float(rx.f(y, np.asarray(u1))) - float(rx.f(y, np.asarray(u2))))
        assert d <= rx.lip_k * abs(u1 - u2) + 1e-12


class TestHarmonicCurve:
    """HarmonicCurve against the formulas of the constant, cosine and sine
    curves it replaced, written out here as the reference."""

    W = 2.0 * np.pi

    def constant(self, value, y):
        return np.full_like(y, value), np.zeros_like(y)

    def cosine(self, mean, amp, y):
        return mean + amp * np.cos(2.0 * np.pi * y), -amp * self.W * np.sin(self.W * y)

    def sine(self, mean, amp, y):
        return mean + amp * np.sin(2.0 * np.pi * y), amp * 2.0 * np.pi * np.cos(2.0 * np.pi * y)

    @staticmethod
    def assert_same_bits(got, want):
        # bit for bit, except that a zero term may turn a -0.0 into +0.0
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert np.all(got[~nonzero] == 0.0)

    @given(st.floats(0.01, 10.0), st.floats(-10.0, 10.0),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
    @settings(max_examples=10, deadline=None)
    def test_bitwise_equal_to_the_three_curves(self, mean, amp, ys):
        y = np.array(ys + [0.0, 0.25, 0.5, 0.75])
        for curve, (value, deriv) in (
                (pr.HarmonicCurve(mean), self.constant(mean, y)),
                (pr.HarmonicCurve(mean, amp), self.cosine(mean, amp, y)),
                (pr.HarmonicCurve(mean, sin_amp=amp), self.sine(mean, amp, y))):
            self.assert_same_bits(curve(y), value)
            self.assert_same_bits(curve.deriv(y), deriv)


class TestHarmonicMean:
    def test_constant(self):
        assert pr.harmonic_mean(const_coeff(2.5)) == pytest.approx(2.5, rel=1e-12)

    def test_two_plus_cos(self):
        # closed form: (int dy / (A + cos 2 pi y))^-1 = sqrt(A^2 - 1)
        assert pr.harmonic_mean(cos_coeff(2.0, 1.0)) == pytest.approx(np.sqrt(3.0), rel=1e-10)

    def test_reciprocal_cosine(self):
        class Recip:
            def __call__(self, y):
                return 1.0 / (2.0 - np.cos(2 * np.pi * np.asarray(y)))
            def deriv(self, y):
                y = np.asarray(y)
                return -2 * np.pi * np.sin(2 * np.pi * y) / (2 - np.cos(2 * np.pi * y)) ** 2
        coeff = pr.CoefficientProfile.from_curve(Recip())
        assert pr.harmonic_mean(coeff) == pytest.approx(0.5, rel=1e-10)

    def test_nonpositive_rejected(self):
        with pytest.raises(pr.ProfileError):
            pr.CoefficientProfile.from_curve(pr.HarmonicCurve(0.5, 1.0))

    @given(st.floats(0.1, 2.0), st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_am_hm_inequality(self, mean_scale, rel_amp):
        mean = 1.0 + mean_scale
        amp = rel_amp * mean * 0.9
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(mean, amp))
        hm = pr.harmonic_mean(coeff)
        am = float(np.mean(coeff.a(np.linspace(0, 1, 4097))))
        assert hm <= am + 1e-12
        if amp > 1e-3:
            assert hm < am


def simpson(values, n):
    """Composite Simpson rule over the last axis, n intervals of [0, 1]."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.sum(values * w, axis=-1) * (1.0 / n / 3.0)


def simpson_table_fbar(rx, u):
    """The average of f over one period at the nodes u, and of its end slopes,
    by Simpson's rule on the (u, y) table (a row per u, so numpy sums each
    row pairwise)."""
    y = np.linspace(0.0, 1.0, pr.QUAD_N + 1)
    return (simpson(rx.f(y[None, :], u[:, None]), pr.QUAD_N),
            simpson(rx.df(y, 0.0), pr.QUAD_N), simpson(rx.df(y, 1.0), pr.QUAD_N))


class TestFbar:
    def test_scalar_bitwise_equals_array_call(self):
        fbar, _ = pr.fbar_and_integral(pr.make_cubic(pr.HarmonicCurve(0.35, 0.1), scale=2.0))
        u = np.concatenate([np.random.default_rng(5).uniform(-0.1, 1.1, 20000),
                            np.linspace(0.0, 1.0, 513), [0.0, 1.0, -0.0]])
        fast = np.array([fbar.scalar(float(x)) for x in u])
        slow = np.array([float(fbar(x)) for x in u])
        assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))

    @pytest.mark.parametrize("theta, scale", [
        (0.3, 1.0), (pr.HarmonicCurve(0.45, 0.2), 2.0),
        (pr.TabulatedPeriodicCurve(np.linspace(0.0, 1.0, 8, endpoint=False),
                                   0.4 + 0.1 * np.sin(np.arange(8.0))), 1.0)],
        ids=["constant", "cosine-scale-2", "tabulated"])
    def test_matches_the_simpson_table(self, theta, scale):
        # the closed form is the y-average of the (y, u) table; Simpson's rule
        # in u integrates the cubic exactly
        rx = pr.make_cubic(theta, scale=scale)
        fbar, i_fbar = pr.fbar_and_integral(rx)
        u = np.linspace(0.0, 1.0, 513)
        values, slope0, slope1 = simpson_table_fbar(rx, u)
        np.testing.assert_allclose(fbar(u), values, rtol=0.0, atol=1e-15)
        assert fbar.slope0 == pytest.approx(slope0, rel=0.0, abs=1e-15)
        assert fbar.slope1 == pytest.approx(slope1, rel=0.0, abs=1e-15)
        assert i_fbar == pytest.approx(simpson(values, 512), rel=0.0, abs=1e-15)

    def test_non_cubic_reaction_rejected(self):
        zero_rx = diffusion_inst(pr.HarmonicCurve(1.0), 1.0).reaction
        with pytest.raises(pr.ProfileError):
            pr.fbar_and_integral(zero_rx)

    def test_symmetric_integral_zero(self):
        _, i_fbar = pr.fbar_and_integral(pr.make_cubic(0.5))
        assert i_fbar == pytest.approx(0.0, abs=1e-14)

    def test_cubic_integral_closed_form(self):
        _, i_fbar = pr.fbar_and_integral(pr.make_cubic(0.3))
        assert i_fbar == pytest.approx(1.0 / 30.0, rel=1e-10)

    def test_oscillating_theta_averages_out(self):
        rx = pr.make_cubic(pr.HarmonicCurve(0.5, 0.2))
        fbar, i_fbar = pr.fbar_and_integral(rx)
        assert i_fbar == pytest.approx(0.0, abs=1e-12)
        u = np.linspace(0, 1, 101)
        np.testing.assert_allclose(fbar(u), u * (1 - u) * (u - 0.5), atol=1e-10)

    def test_slopes(self):
        fbar, _ = pr.fbar_and_integral(pr.make_cubic(0.3))
        assert fbar.slope0 == pytest.approx(-0.3, rel=1e-10)
        assert fbar.slope1 == pytest.approx(-0.7, rel=1e-10)

    def test_zeros_inside(self):
        fbar, _ = pr.fbar_and_integral(pr.make_cubic(0.3))
        zeros = fbar.zeros_inside()
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(0.3, abs=1e-9)

    def test_quintic_zeros_inside(self):
        roots = (0.15, 0.45, 0.8)
        f = -np.polynomial.Polynomial.fromroots((0.0, 1.0) + roots)
        zeros = pr.FbarCurve(f.coef).zeros_inside()
        assert len(zeros) == 3
        np.testing.assert_allclose(zeros, roots, rtol=0.0, atol=1e-12)


class TestCorrector:
    def test_constant_coefficient_gives_zero(self):
        coeff = const_coeff(3.0)
        chi = pr.corrector_chi(coeff, 3.0)
        y = np.linspace(0, 1, 17)
        np.testing.assert_allclose(chi(y), 0.0, atol=1e-14)

    def test_two_plus_cos_slope_at_zero(self):
        coeff = cos_coeff()
        a_h = pr.harmonic_mean(coeff)
        chi = pr.corrector_chi(coeff, a_h)
        assert chi.deriv(0.0) == pytest.approx(np.sqrt(3) / 3 - 1, rel=1e-10)

    def test_mean_zero_and_periodic(self):
        coeff = cos_coeff(1.5, 0.7)
        a_h = pr.harmonic_mean(coeff)
        chi = pr.corrector_chi(coeff, a_h)
        y = np.linspace(0, 1, 2049)
        dchi = chi.deriv(y)
        assert np.trapezoid(dchi, y) == pytest.approx(0.0, abs=1e-8)
        assert abs(chi(np.asarray(1.0)) - chi(np.asarray(0.0))) < 1e-10

    @given(st.floats(0.05, 0.45))
    @settings(max_examples=20, deadline=None)
    def test_flux_identity(self, rel_amp):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0, rel_amp))
        a_h = pr.harmonic_mean(coeff)
        chi = pr.corrector_chi(coeff, a_h)
        y = np.linspace(0, 1, 513)
        dev = np.asarray(coeff.a(y)) * (chi.deriv(y) + 1.0) - a_h
        assert np.max(np.abs(dev)) < 1e-10


class TestMakeCubic:
    def test_theta_is_zero(self):
        rx = pr.make_cubic(0.3)
        y = np.linspace(0, 1, 9)
        np.testing.assert_allclose(rx.f(y, np.full_like(y, 0.3)), 0.0, atol=1e-15)

    def test_derivative_at_theta(self):
        rx = pr.make_cubic(0.3)
        val = float(rx.df(np.asarray(0.0), np.asarray(0.3)))
        assert val == pytest.approx(0.3 * 0.7, rel=1e-12)

    def test_cosine_theta_midpoint(self):
        rx = pr.make_cubic(pr.HarmonicCurve(0.5, 0.2))
        assert float(rx.theta(np.asarray(0.25))) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_theta_rejected(self):
        with pytest.raises(pr.ProfileError):
            pr.make_cubic(pr.HarmonicCurve(0.5, 0.6))

    def test_margin_too_large_rejected(self):
        with pytest.raises(pr.ProfileError):
            pr.make_cubic(0.3, gamma=0.4, delta=0.05)


class TestXinExample:
    def test_lambda_zero_degenerates(self):
        inst = pr.make_xin_example(0.1, 0.0, 1.0)
        y = np.linspace(0, 1, 33)
        np.testing.assert_allclose(inst.coeff.a(y), 1.0, atol=1e-14)
        assert float(inst.reaction.theta(np.asarray(0.3))) == pytest.approx(0.4)

    def test_quarter_period_value(self):
        inst = pr.make_xin_example(0.2, 2.0, 1.0)
        assert float(inst.coeff.a(np.asarray(0.25))) == pytest.approx(1.4, rel=1e-12)

    def test_positivity_boundary_rejected(self):
        with pytest.raises(pr.ProfileError):
            pr.make_xin_example(0.2, 5.0, 1.0)


class TestProblemInstance:
    def test_scaled_periodicity(self):
        inst = pr.ProblemInstance(coeff=cos_coeff(), reaction=pr.make_cubic(0.3), L=0.7)
        x = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(inst.a_L(x + 0.7), inst.a_L(x), atol=1e-12)
        u = np.full_like(x, 0.6)
        np.testing.assert_allclose(inst.f_L(x + 0.7, u), inst.f_L(x, u), atol=1e-12)

    def test_positive_minimum(self):
        inst = pr.ProblemInstance(coeff=cos_coeff(), reaction=pr.make_cubic(0.3), L=2.0)
        x = np.linspace(0, 2, 513)
        assert np.min(inst.a_L(x)) > 0

    def test_reaction_kept_as_given(self):
        # the instance neither wraps nor copies its reaction
        rx = pr.make_cubic(0.3)
        assert pr.ProblemInstance(coeff=const_coeff(), reaction=rx, L=1.0).reaction is rx

    def test_bad_period_rejected(self):
        with pytest.raises(pr.ProfileError):
            pr.ProblemInstance(coeff=const_coeff(), reaction=pr.make_cubic(0.3), L=0.0)


class TestTabulated:
    def test_round_trip(self, tmp_path):
        y = np.arange(64) / 64
        vals = 2.0 + np.cos(2 * np.pi * y)
        path = tmp_path / "a.txt"
        with open(path, "w") as fh:
            fh.write("# period=1\n")
            for yy, vv in zip(y, vals):
                fh.write(f"{yy} {vv}\n")
        curve = pr.TabulatedPeriodicCurve.from_file(path)
        yy = np.linspace(0, 1, 257)
        np.testing.assert_allclose(curve(yy), 2.0 + np.cos(2 * np.pi * yy), atol=2e-6)
        np.testing.assert_allclose(curve.deriv(yy), -2 * np.pi * np.sin(2 * np.pi * yy),
                                   atol=1e-4)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        with open(path, "w") as fh:
            fh.write("0.0 1.0\n0.5 2.0\n0.75 1.5\n0.9 1.2\n")
        with pytest.raises(pr.ProfileError):
            pr.TabulatedPeriodicCurve.from_file(path)

    def test_locate_theta_bisection(self):
        rx = pr.make_cubic(pr.HarmonicCurve(0.45, 0.1))
        th = locate_theta(rx.f, 0.2, rx.delta)
        assert th == pytest.approx(float(rx.theta(np.asarray(0.2))), abs=1e-10)


def test_homogenized_data_bundle():
    hd = pr.homogenized_data(cos_coeff(), pr.make_cubic(0.3))
    assert hd.a_h == pytest.approx(np.sqrt(3.0), rel=1e-10)
    assert hd.i_fbar == pytest.approx(1 / 30, rel=1e-9)
    assert hd.theta_bar[0] == pytest.approx(0.3, abs=1e-9)
    assert hd.slope0 < 0 and hd.slope1 < 0
