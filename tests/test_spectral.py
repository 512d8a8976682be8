import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

import pulsefront.profiles as pr
import pulsefront.spectral as sp


def make_inst(theta=0.3, a_amp=0.0, L=1.0, theta_amp=0.0):
    curve = pr.HarmonicCurve(2.0, a_amp) if a_amp else pr.HarmonicCurve(1.0)
    coeff = pr.CoefficientProfile.from_curve(curve)
    th = pr.HarmonicCurve(theta, theta_amp)
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(th), L=L)


ZERO = lambda x: np.zeros_like(np.asarray(x, dtype=float))


class TestDirichlet:
    def test_constant_case_value(self):
        # potential q = df(x, 0) = -0.3, a = 1: lambda = q - (pi/(2R))^2
        inst = make_inst(0.3)
        R = np.pi / 2
        pair = sp.dirichlet_principal_eigen(inst, ZERO, R, n_nodes=2048)
        assert pair.value == pytest.approx(-0.3 - 1.0, abs=1e-6)

    def test_eigenfunction_is_cosine(self):
        inst = make_inst(0.3)
        R = np.pi / 2
        pair = sp.dirichlet_principal_eigen(inst, ZERO, R, n_nodes=2048)
        exact = np.cos(np.pi * pair.x / (2 * R))
        l2 = np.sqrt(np.trapezoid((pair.psi - exact) ** 2, pair.x))
        assert l2 < 1e-6

    def test_increases_with_radius(self):
        inst = make_inst(0.3)
        v1 = sp.dirichlet_principal_eigen(inst, ZERO, np.pi / 2, 1024).value
        v2 = sp.dirichlet_principal_eigen(inst, ZERO, np.pi, 1024).value
        assert v2 > v1
        assert v2 == pytest.approx(-0.3 - 0.25, abs=1e-5)

    def test_residual_invariant(self):
        inst = make_inst(0.3, a_amp=1.0)
        pair = sp.dirichlet_principal_eigen(
            inst, lambda x: np.asarray(inst.theta_L(x)), 4.0, 1024)
        assert pair.residual <= 1e-8
        assert np.all(pair.psi[1:-1] > 0.0)

    def test_node_floor(self):
        inst = make_inst()
        with pytest.raises(ValueError):
            sp.dirichlet_principal_eigen(inst, ZERO, 1.0, n_nodes=32)


def power_iteration_reference(diag, off, max_iter=10_000):
    """Shifted inverse power iteration, shift above the Gershgorin edge: the
    Dirichlet eigensolver this module used before LAPACK's tridiagonal one."""
    sigma = float(np.max(diag + np.concatenate([[0.0], np.abs(off)])
                         + np.concatenate([np.abs(off), [0.0]]))) + 1.0
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = ab[2, :-1] = -off
    ab[1] = sigma - diag
    opnorm = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))
    tol = max(1e-10, 16.0 * np.finfo(float).eps * opnorm)
    v = np.ones(len(diag))
    for _ in range(max_iter):
        w = solve_banded((1, 1), ab, v)
        w /= np.max(np.abs(w))
        av = diag * w
        av[1:] += off * w[:-1]
        av[:-1] += off * w[1:]
        lam = float(np.dot(w, av) / np.dot(w, w))
        v = w
        if np.max(np.abs(av - lam * w)) <= tol:
            return lam
    raise AssertionError("reference power iteration did not converge")


class TestPrincipalBanded:
    @given(hyp.integers(1, 40).flatmap(lambda m: hyp.tuples(
        hyp.lists(hyp.floats(-10.0, 10.0), min_size=m, max_size=m),
        hyp.lists(hyp.floats(0.5, 10.0), min_size=m - 1, max_size=m - 1))))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_largest_eigenpair(self, diags):
        diag, off = np.array(diags[0]), np.array(diags[1])
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        norm = float(np.max(np.sum(np.abs(T), axis=1)))
        lam, psi, resid, it = sp._principal_banded(diag, off)
        assert lam == pytest.approx(np.linalg.eigvalsh(T).max(), abs=1e-12 * norm)
        assert np.all(psi > 0.0) and np.max(psi) == 1.0
        # the reported residual is the returned pair's own, not an estimate
        tpsi = diag * psi
        tpsi[1:] += off * psi[:-1]
        tpsi[:-1] += off * psi[1:]
        assert resid == float(np.max(np.abs(tpsi - lam * psi)))
        assert np.max(np.abs(T @ psi - lam * psi)) <= 1e-12 * norm
        assert it == 0

    @pytest.mark.parametrize("state", ["zero", "theta"])
    def test_agrees_with_power_iteration(self, state, monkeypatch):
        # R = 16 at 128 nodes per unit: 4,095 interior nodes
        inst = make_inst(0.3, a_amp=1.0)
        ubar = {"zero": ZERO, "theta": lambda x: np.asarray(inst.theta_L(x))}[state]
        seen = []
        core = sp._principal_banded

        def recorded(diag, off):
            seen.append((diag, off))
            return core(diag, off)

        monkeypatch.setattr(sp, "_principal_banded", recorded)
        pair = sp.dirichlet_principal_eigen(inst, ubar, 16.0, n_nodes=4097)
        (diag, off), = seen
        assert len(diag) == 4095
        assert pair.iterations == 0
        assert pair.value == pytest.approx(power_iteration_reference(diag, off), abs=1e-10)


class TestPeriodic:
    def test_constant_potential_exact(self):
        inst = make_inst(0.3)
        pair = sp.periodic_principal_eigen(inst, ZERO, n_nodes=256)
        assert pair.value == pytest.approx(-0.3, abs=1e-10)
        np.testing.assert_allclose(pair.psi, 1.0, atol=1e-9)

    def test_intermediate_constant_state(self):
        inst = make_inst(0.3)
        pair = sp.periodic_principal_eigen(
            inst, lambda x: np.full_like(np.asarray(x, dtype=float), 0.3), 256)
        assert pair.value == pytest.approx(0.21, abs=1e-10)

    def test_comparison_bounds(self):
        inst = make_inst(0.3, a_amp=1.0, L=0.7, theta_amp=0.0)
        ubar = lambda x: 0.4 + 0.05 * np.cos(2 * np.pi * np.asarray(x) / 0.7)
        pair = sp.periodic_principal_eigen(inst, ubar, 512)
        x = np.linspace(0, 0.7, 2048, endpoint=False)
        q = np.asarray(inst.df_L(x, ubar(x)))
        assert q.min() - 1e-9 <= pair.value <= q.max() + 1e-9

    def test_grid_convergence_order_two(self):
        inst = make_inst(0.3, a_amp=1.0, L=1.0, theta_amp=0.05)
        ubar = lambda x: 0.45 + 0.1 * np.cos(2 * np.pi * np.asarray(x, dtype=float))
        vals = [sp.periodic_principal_eigen(inst, ubar, n).value
                for n in (128, 256, 512)]
        e1 = abs(vals[0] - vals[2])
        e2 = abs(vals[1] - vals[2])
        assert e1 / max(e2, 1e-15) > 3.0  # about 4x per halving


class TestStabilityLimit:
    def test_monotone_trace_to_periodic_value(self):
        inst = make_inst(0.3)
        lim = sp.stability_limit(inst, ZERO, [2.0, 4.0, 8.0, 16.0])
        assert all(b > a for a, b in zip(lim.lambdas, lim.lambdas[1:]))
        assert lim.periodic_value == pytest.approx(-0.3, abs=1e-9)
        assert lim.terminal_gap < 1.5 * (np.pi / 32) ** 2
        assert lim.cls == "stable"

    def test_intermediate_state_trace(self):
        inst = make_inst(0.3)
        theta = lambda x: np.full_like(np.asarray(x, dtype=float), 0.3)
        lim = sp.stability_limit(inst, theta, [2.0, 4.0, 8.0])
        assert all(b > a for a, b in zip(lim.lambdas, lim.lambdas[1:]))
        assert lim.lambdas[-1] < 0.21 < lim.lambdas[-1] + 0.2
        assert lim.cls == "unstable"


class TestSteadyStates:
    def test_homogeneous_unique_interior_state(self):
        inst = make_inst(0.3)
        states = sp.find_periodic_steady_states(inst)
        assert len(states) == 1
        s = states[0]
        np.testing.assert_allclose(s.u, 0.3, atol=1e-9)
        assert s.cls == "unstable"
        assert s.lambda1 == pytest.approx(0.21, abs=1e-8)
        assert s.residual < 1e-11

    def test_small_period_oscillating_theta(self):
        inst = make_inst(0.5, theta_amp=0.1, L=0.1)
        states = sp.find_periodic_steady_states(inst)
        assert states, "expected a steady state near the averaged zero"
        s = min(states, key=lambda s: abs(float(np.mean(s.u)) - 0.5))
        assert abs(float(np.mean(s.u)) - 0.5) < 0.05
        assert s.lambda1 > 0.0

    def test_out_of_range_seeds_rejected(self):
        inst = make_inst(0.3)
        states = sp.find_periodic_steady_states(inst, seeds=[-0.5, 1.7])
        assert len(states) == 1  # extra seeds ignored, builtin ones remain


class TestDecayRoots:
    def test_constant_margin_rate(self):
        inst = make_inst(0.3)
        g = inst.reaction.gamma
        mu = sp.decay_root_mu(inst, 0.0, "right", "margin")
        assert mu == pytest.approx(np.sqrt(g), abs=1e-6)

    def test_moving_margin_roots_both_sides(self):
        inst = make_inst(0.3)
        g = inst.reaction.gamma
        c = 0.4 / np.sqrt(2.0)
        mu_r = sp.decay_root_mu(inst, c, "right", "margin")
        mu_l = sp.decay_root_mu(inst, c, "left", "margin")
        assert mu_r == pytest.approx((c + np.sqrt(c * c + 4 * g)) / 2, abs=1e-8)
        assert mu_l == pytest.approx((-c + np.sqrt(c * c + 4 * g)) / 2, abs=1e-8)

    def test_linearized_matches_characteristic_roots(self):
        inst = make_inst(0.3)
        c = 0.4 / np.sqrt(2.0)
        mu_r = sp.decay_root_mu(inst, c, "right", "linearized")
        mu_l = sp.decay_root_mu(inst, c, "left", "linearized")
        assert mu_r == pytest.approx((c + np.sqrt(c * c + 1.2)) / 2, abs=1e-8)
        assert mu_l == pytest.approx((-c + np.sqrt(c * c + 2.8)) / 2, abs=1e-8)

    def test_curve_starts_at_minus_gamma_and_grows(self):
        inst = make_inst(0.3, a_amp=1.0, L=0.5)
        g = inst.reaction.gamma
        lam0 = sp.decay_eigenvalue(inst, 0.1, 0.0, "right", "margin", n_nodes=128).value
        assert lam0 == pytest.approx(-g, abs=1e-8)
        mus = np.linspace(0.0, 8.0, 9)
        lams = [sp.decay_eigenvalue(inst, 0.1, m, "right", "margin", n_nodes=512).value
                for m in mus]
        assert all(np.isfinite(lams))
        # quadratic growth floor at large rates
        alpha = (lams[-1] - lams[-2]) / (mus[-1] ** 2 - mus[-2] ** 2)
        beta = alpha * mus[-1] ** 2 - lams[-1]
        assert alpha > 0
        assert all(l >= alpha * m * m - beta - 1e-8 for m, l in zip(mus, lams))

    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("potential", ["margin", "linearized"])
    def test_constant_coefficients_give_the_closed_form(self, direction, potential):
        # a = 1 and a constant potential p: mu^2 -+ c mu + p = 0
        inst = make_inst(0.3)
        c = 0.28
        p = {"margin": (-inst.reaction.gamma,) * 2, "linearized": (-0.3, -0.7)}[potential]
        sgn, q = (1.0, p[0]) if direction == "right" else (-1.0, p[1])
        mu = sp.decay_root_mu(inst, c, direction, potential)
        assert mu == pytest.approx((sgn * c + np.sqrt(c * c - 4 * q)) / 2, abs=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_variable_diffusivity_within_discretization_error(self, L):
        # a = 2 + cos 2 pi y: within mu / n^2 of the root that Brent's method
        # finds on the same n nodes per period
        inst = make_inst(0.3, a_amp=1.0, L=L)
        coeff = inst.coeff
        n = max(128, int(np.ceil(6.0 * L * sp.DECAY_MU_MAX * coeff.a_max / coeff.a_min)))
        for c in (0.0, 0.28, -0.2):
            for direction in ("right", "left"):
                for potential in ("margin", "linearized"):
                    def lam(mu):
                        return sp.decay_eigenvalue(inst, c, mu, direction, potential,
                                                   n).value
                    ref = brentq(lam, 0.0, 5.0, xtol=1e-14)
                    mu = sp.decay_root_mu(inst, c, direction, potential)
                    assert abs(mu - ref) <= mu / n**2, (c, direction, potential)

    def test_unsettled_secant_errors(self, monkeypatch):
        # the seed is not the root once a varies, so one secant step is not
        # enough
        inst = make_inst(0.3, a_amp=1.0)
        monkeypatch.setattr(sp, "NEWTON_MAX_ITER", 1)
        with pytest.raises(sp.EigenIterationError):
            sp.decay_root_mu(inst, 0.0, "right", "margin")


def make_inst_with_d(d, theta):
    coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(d))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(theta), L=1.0)


def test_constant_diffusivity_scaling_of_margin_root():
    inst = make_inst_with_d(2.0, 0.3)
    g = inst.reaction.gamma
    mu = sp.decay_root_mu(inst, 0.0, "right", "margin")
    assert mu == pytest.approx(np.sqrt(g / 2.0), abs=1e-8)
