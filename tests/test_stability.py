import math

import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.profiles as pr
import pulsefront.spectral as spx
import pulsefront.stability as st
from pulsefront.solver import SolverConfig, Stepper, build_grid, shift_window


@pytest.fixture(scope="module")
def inst():
    coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.3), L=1.0)


@pytest.fixture(scope="module")
def front(inst):
    return fr.compute_pulsating_front(inst, fr.FrontRunConfig(), fr.Budget(300.0))


@pytest.fixture(scope="module")
def frame(inst, front):
    grid = build_grid(inst, 22.0, 64)
    return st.ComovingFrame(inst=inst, front=front, grid=grid)


@pytest.fixture(scope="module")
def frame_cfg(frame):
    # poincare_map shortens the step to T/n
    return SolverConfig(dt=0.05)


def datum_from_translate(frame, tau):
    g = frame.V(tau, 0.0, frame.grid.nodes)
    g = np.asarray(g, dtype=float)
    g[0], g[-1] = 1.0, 0.0
    return g


class TestFrame:
    def test_period(self, frame, front, inst):
        assert frame.T == pytest.approx(inst.L / abs(front.speed))

    def test_translates_are_ordered(self, frame):
        xi = frame.grid.nodes
        v1 = frame.V(-1.0, 0.0, xi)
        v2 = frame.V(1.0, 0.0, xi)
        core = np.abs(xi) < 15.0
        assert np.all(v1[core] >= v2[core])

    def test_fixed_point_family(self, frame, frame_cfg, inst):
        for tau in (-2.0, -1.0, 0.0, 1.0, 2.0):
            g = datum_from_translate(frame, tau * inst.L)
            out = st.poincare_map(frame, frame_cfg, g)
            assert np.max(np.abs(out - g)) < 1e-3

    def test_zero_stays_zero(self, frame, frame_cfg):
        cfg = SolverConfig(dt=frame_cfg.dt, u_left=0.0, u_right=0.0)
        out = st.poincare_map(frame, cfg, np.zeros(frame.grid.n))
        assert np.max(np.abs(out)) < 1e-14

    def test_poincare_monotone(self, frame, frame_cfg):
        g1 = datum_from_translate(frame, 1.0)   # lower translate
        g2 = datum_from_translate(frame, -1.0)
        assert np.all(g2 >= g1)
        p1 = st.poincare_map(frame, frame_cfg, g1)
        p2 = st.poincare_map(frame, frame_cfg, g2)
        assert np.min(p2 - p1) >= -1e-10

    def test_double_map_equals_two_periods(self, inst, frame, frame_cfg):
        # two maps against 2n steps and one shift by two periods: they differ
        # only by the tail values (about 1e-7 here) that the first shift
        # replaces at the window's edge, and that difference decays inward
        g = datum_from_translate(frame, 0.5)
        a = st.poincare_map(frame, frame_cfg, st.poincare_map(frame, frame_cfg, g))
        n = math.ceil(frame.T / frame_cfg.dt - 1e-9)
        cfg = SolverConfig(dt=frame.T / n)
        b, _ = Stepper(inst, frame.grid, cfg).run(g.copy(), 0.0, 2 * n)
        b = shift_window(b, 2, frame.grid.nodes_per_period, 1.0, 0.0)
        core = np.abs(frame.grid.nodes) < 10.0
        assert np.max(np.abs(a[core] - b[core])) < 1e-11

    def test_linearization_matches_difference_quotient(self, inst, coarse):
        grid = build_grid(inst, 8.0, 12)
        frame = st.ComovingFrame(inst=inst, front=coarse, grid=grid)
        n = math.ceil(frame.T / 0.05)
        cfg = SolverConfig(dt=frame.T / n)
        u0 = datum_from_translate(frame, 0.0)
        pots = np.empty((n, grid.n))
        pots[0] = inst.df_L(grid.nodes, u0)

        def record(k, t, u):
            if k < n:
                pots[k] = inst.df_L(grid.nodes, u)

        base = st.poincare_map(frame, cfg, u0, record)
        P = st.linearized_period_map(inst, pots, grid, cfg.dt, 1)
        x = grid.nodes
        v = np.exp(-((x - 1.0) / 2.0) ** 2)
        v[0] = v[-1] = 0.0
        eps = 1e-6
        quotient = (st.poincare_map(frame, cfg, u0 + eps * v) - base) / eps
        # the map pins its end values, the linearization keeps row 0 of the shift
        inner = slice(1, -1)
        assert np.max(np.abs(P[inner] @ v - quotient[inner])) < 1e-5 * np.max(np.abs(P @ v))


class TestSuperSub:
    def test_super_defect_nonnegative(self, inst, front):
        ss = st.build_supersub(inst, "super", front.speed)
        assert ss.defect_min >= -1e-8

    def test_sub_defect_nonpositive(self, inst, front):
        ss = st.build_supersub(inst, "sub", front.speed)
        assert ss.defect_max <= 1e-8

    def test_interface_value_at_origin(self, inst, front):
        ss = st.build_supersub(inst, "super", front.speed)
        assert float(ss.w(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        delta = inst.reaction.delta
        xi = np.linspace(-30.0, 0.0, 61)
        assert np.all(ss.w(0.0, xi) >= 1.0 - 1e-12)

    def test_long_time_shape(self, inst, front):
        ss = st.build_supersub(inst, "super", front.speed)
        t = 200.0
        xi = np.linspace(-5, 5, 21)
        eta = st._eta(xi + ss.c_pm * t)
        assert np.max(np.abs(ss.w(t, xi) - eta)) < 1e-10

    def test_squeeze_at_time_zero(self, inst, front):
        delta = inst.reaction.delta
        xi = np.linspace(-40, 40, 4001)
        g = np.clip(front.interp(xi, xi / inst.L), 0.0, 1.0)
        sup = st.build_supersub(inst, "super", front.speed)
        sub = st.build_supersub(inst, "sub", front.speed)
        s_plus = xi[np.max(np.nonzero(g > delta)[0])]
        s_minus = xi[np.min(np.nonzero(g < 1.0 - delta)[0])]
        assert np.all(g <= sup.w(0.0, xi - s_plus) + 1e-12)
        assert np.all(g >= sub.w(0.0, xi - s_minus) - 1e-12)

    def test_small_K_rejected(self, inst, front):
        with pytest.raises(ValueError):
            st.build_supersub(inst, "super", front.speed, K=0.01)


class TestGlobalStability:
    def test_exact_translate_floor(self, inst, front):
        L = inst.L
        shift = 3.0 * L

        def g(x):
            return front.interp(x - shift, x / L)

        rep = st.global_stability_experiment(inst, front, g, fr.Budget(60.0))
        assert rep.accepted
        assert rep.final_error < 1e-4
        assert rep.tau_g == pytest.approx(shift / front.speed, abs=0.02)

    def test_perturbed_front_positive_rate(self, inst, front):
        def g(x):
            bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
            return np.clip(front.interp(x, x / inst.L) + bump, 0.0, 1.0)

        rep = st.global_stability_experiment(inst, front, g, fr.Budget(100.0))
        assert rep.accepted
        assert np.isfinite(rep.mu_fit) and rep.mu_fit > 0
        assert rep.final_error < 1e-4

    def test_violating_datum_rejected(self, inst, front):
        def g(x):
            return np.where(x < 0, 0.5, 0.0)   # liminf at -inf too small

        with pytest.raises(ValueError):
            st.global_stability_experiment(inst, front, g, fr.Budget(10.0))


class TestInitialv2:
    def test_trapped_datum_accepted(self, inst, front):
        states = spx.find_periodic_steady_states(inst)

        def g(x):
            return 0.45 - 0.40 / (1.0 + np.exp(-x / 0.8))

        rep = st.initialv2_experiment(inst, front, states, g, fr.Budget(220.0))
        assert rep.accepted
        assert rep.mu_fit > 0
        assert rep.diagnostics["t_frontlike"] < 50.0

    def test_datum_below_state_rejected(self, inst, front):
        states = spx.find_periodic_steady_states(inst)

        def g(x):
            return 0.25 - 0.2 / (1.0 + np.exp(-x))

        with pytest.raises(ValueError):
            st.initialv2_experiment(inst, front, states, g, fr.Budget(10.0))

    def test_non_unstable_state_rejected(self, inst, front):
        fake = spx.SteadyState(x=np.arange(4.0), u=np.full(4, 0.3), residual=0.0,
                               lambda1=-0.1, eigen=None, cls="stable")

        def g(x):
            return np.where(x < 0, 0.9, 0.1)

        with pytest.raises(ValueError):
            st.initialv2_experiment(inst, front, [fake], g, fr.Budget(10.0))


@pytest.fixture(scope="module")
def coarse(inst):
    cfg = fr.FrontRunConfig(nodes_per_period=12, halfwidth=16.0, tol_puls=2e-4)
    return fr.compute_pulsating_front(inst, cfg, fr.Budget(400.0))


class TestSpectrum:
    def test_unit_eigenvalue_and_direction(self, inst, coarse, front):
        # the coarse front fits the node budget as is; the 64-node/period
        # front is coarsened before its extent is trimmed
        for fr_ in (coarse, front):
            spec = st.poincare_spectrum(inst, fr_, n_nodes=400)
            assert spec.n_nodes <= 400
            assert spec.leading_gap < 1e-2
            assert spec.cosine_similarity > 0.99

    def test_contraction_below_leading(self, inst, coarse):
        spec = st.poincare_spectrum(inst, coarse, n_nodes=400)
        assert spec.second_modulus < 1.0
        assert spec.n_above_ess < 10
        assert len(spec.flagged) == spec.n_above_ess

    def test_linear_decay_bound(self, inst):
        gamma = 0.25
        T = 3.5
        mods = st.linear_decay_spectrum(inst, gamma, T, n_nodes=150)
        assert mods[0] <= math.exp(-gamma * T) * (1.0 + 0.05)

    @pytest.mark.slow
    def test_fitted_rate_within_spectral_gap_bound(self, inst, front, coarse):
        # the observed convergence rate cannot beat the linearized gap by
        # more than the allowed slack
        spec = st.poincare_spectrum(inst, coarse, n_nodes=400)
        gap_rate = -math.log(spec.second_modulus) / spec.T

        def g(x):
            bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
            return np.clip(front.interp(x, x / inst.L) + bump, 0.0, 1.0)

        rep = st.global_stability_experiment(inst, front, g, fr.Budget(100.0))
        assert rep.mu_fit <= 1.3 * gap_rate
