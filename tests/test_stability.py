import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

import pulsefront.fronts as fr
import pulsefront.spectral as spx
import pulsefront.stability as st
from pulsefront.solver import SolverConfig, Stepper, Window, build_grid, shift_window


@pytest.fixture(scope="module")
def grid(homog_inst):
    return build_grid(homog_inst, 22.0, 64)


@pytest.fixture(scope="module")
def frame_cfg():
    # poincare_map shortens the step to T/n
    return SolverConfig(dt=0.05)


def linear_decay_spectrum(inst, gamma, T, n_nodes=200):
    """Spectrum of the period map when the reaction is the pure decay -gamma u
    (flat reference orbit, no shift) on [-10, 10]: all moduli fall below
    e^{-gamma T}."""
    halfwidth = 10.0
    grid = build_grid(inst, halfwidth, max(8, (n_nodes - 1) //
                                           max(2, int(2 * halfwidth / inst.L))))
    n_steps = max(1, int(math.ceil(T / 0.02)))
    dt = T / n_steps
    pots = np.full((n_steps, grid.n), -gamma)
    P = st.linearized_period_map(inst, pots, grid, dt, 0)
    return np.sort(np.abs(np.linalg.eigvals(P)))[::-1]


def translate(front, L, tau, x):
    """The front's translate phi(x + tau, x/L) at t = 0 with pinned ends."""
    g = front.interp(x + tau, x / L)
    g[0], g[-1] = 1.0, 0.0
    return g


class TestFrame:
    def test_period(self, homog_inst, homog_front, grid, frame_cfg):
        # the steps of one map cover exactly T = L/|c|
        ts = []
        st.poincare_map(homog_inst, grid, homog_front.speed, frame_cfg,
                        translate(homog_front, homog_inst.L, 0.0, grid.nodes),
                        lambda k, t, u: ts.append(t))
        T = homog_inst.L / abs(homog_front.speed)
        assert len(ts) == math.ceil(T / frame_cfg.dt - 1e-9)
        assert ts[-1] == pytest.approx(T, rel=1e-12)

    def test_translates_are_ordered(self, homog_inst, homog_front, grid):
        xi = grid.nodes
        v1 = homog_front.interp(xi - 1.0, xi / homog_inst.L)
        v2 = homog_front.interp(xi + 1.0, xi / homog_inst.L)
        core = np.abs(xi) < 15.0
        assert np.all(v1[core] >= v2[core])

    def test_fixed_point_family(self, homog_front, grid, frame_cfg, homog_inst):
        for tau in (-2.0, -1.0, 0.0, 1.0, 2.0):
            g = translate(homog_front, homog_inst.L, tau * homog_inst.L, grid.nodes)
            out = st.poincare_map(homog_inst, grid, homog_front.speed, frame_cfg, g)
            assert np.max(np.abs(out - g)) < 1e-3

    def test_zero_stays_zero(self, homog_inst, homog_front, grid, frame_cfg):
        cfg = SolverConfig(dt=frame_cfg.dt, u_left=0.0, u_right=0.0)
        out = st.poincare_map(homog_inst, grid, homog_front.speed, cfg, np.zeros(grid.n))
        assert np.max(np.abs(out)) < 1e-14

    def test_zero_speed_rejected(self, homog_inst, grid, frame_cfg):
        with pytest.raises(ValueError, match="nonzero speed"):
            st.poincare_map(homog_inst, grid, 0.0, frame_cfg, np.zeros(grid.n))

    def test_poincare_monotone(self, homog_inst, homog_front, grid, frame_cfg):
        g1 = translate(homog_front, homog_inst.L, 1.0, grid.nodes)   # lower translate
        g2 = translate(homog_front, homog_inst.L, -1.0, grid.nodes)
        assert np.all(g2 >= g1)
        c = homog_front.speed
        p1 = st.poincare_map(homog_inst, grid, c, frame_cfg, g1)
        p2 = st.poincare_map(homog_inst, grid, c, frame_cfg, g2)
        assert np.min(p2 - p1) >= -1e-10

    def test_double_map_equals_two_periods(self, homog_inst, homog_front, grid, frame_cfg):
        # two maps against 2n steps and one shift by two periods: they differ
        # only by the tail values (about 1e-7 here) that the first shift
        # replaces at the window's edge, and that difference decays inward
        c = homog_front.speed
        g = translate(homog_front, homog_inst.L, 0.5, grid.nodes)
        a = st.poincare_map(homog_inst, grid, c, frame_cfg,
                            st.poincare_map(homog_inst, grid, c, frame_cfg, g))
        T = homog_inst.L / abs(c)
        n = math.ceil(T / frame_cfg.dt - 1e-9)
        cfg = SolverConfig(dt=T / n)
        b, _ = Stepper(homog_inst, grid, cfg).run(g.copy(), 0.0, 2 * n)
        b = shift_window(b, 2, grid.nodes_per_period, 1.0, 0.0)
        core = np.abs(grid.nodes) < 10.0
        assert np.max(np.abs(a[core] - b[core])) < 1e-11

    def test_linearization_matches_difference_quotient(self, homog_inst, coarse):
        grid = build_grid(homog_inst, 8.0, 12)
        c = coarse.speed
        n = math.ceil(homog_inst.L / abs(c) / 0.05)
        cfg = SolverConfig(dt=homog_inst.L / abs(c) / n)
        u0 = translate(coarse, homog_inst.L, 0.0, grid.nodes)
        pots = np.empty((n, grid.n))
        pots[0] = homog_inst.df_L(grid.nodes, u0)

        def record(k, t, u):
            if k < n:
                pots[k] = homog_inst.df_L(grid.nodes, u)

        base = st.poincare_map(homog_inst, grid, c, cfg, u0, record)
        P = st.linearized_period_map(homog_inst, pots, grid, cfg.dt, 1)
        x = grid.nodes
        v = np.exp(-((x - 1.0) / 2.0) ** 2)
        v[0] = v[-1] = 0.0
        eps = 1e-6
        quotient = (st.poincare_map(homog_inst, grid, c, cfg, u0 + eps * v) - base) / eps
        # the map pins its end values, the linearization keeps row 0 of the shift
        inner = slice(1, -1)
        assert np.max(np.abs(P[inner] @ v - quotient[inner])) < 1e-5 * np.max(np.abs(P @ v))


class TestSuperSub:
    def test_super_defect_nonnegative(self, homog_inst, homog_front):
        ss = st.build_supersub(homog_inst, "super", homog_front.speed)
        assert ss.defect_min >= -1e-8

    def test_sub_defect_nonpositive(self, homog_inst, homog_front):
        ss = st.build_supersub(homog_inst, "sub", homog_front.speed)
        assert ss.defect_max <= 1e-8

    def test_interface_value_at_origin(self, homog_inst, homog_front):
        ss = st.build_supersub(homog_inst, "super", homog_front.speed)
        assert float(ss.w(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        delta = homog_inst.reaction.delta
        xi = np.linspace(-30.0, 0.0, 61)
        assert np.all(ss.w(0.0, xi) >= 1.0 - 1e-12)

    def test_long_time_shape(self, homog_inst, homog_front):
        ss = st.build_supersub(homog_inst, "super", homog_front.speed)
        t = 200.0
        xi = np.linspace(-5, 5, 21)
        eta = st._eta(xi + ss.c_pm * t)
        assert np.max(np.abs(ss.w(t, xi) - eta)) < 1e-10

    def test_squeeze_at_time_zero(self, homog_inst, homog_front):
        delta = homog_inst.reaction.delta
        xi = np.linspace(-40, 40, 4001)
        g = np.clip(homog_front.interp(xi, xi / homog_inst.L), 0.0, 1.0)
        sup = st.build_supersub(homog_inst, "super", homog_front.speed)
        sub = st.build_supersub(homog_inst, "sub", homog_front.speed)
        s_plus = xi[np.max(np.nonzero(g > delta)[0])]
        s_minus = xi[np.min(np.nonzero(g < 1.0 - delta)[0])]
        assert np.all(g <= sup.w(0.0, xi - s_plus) + 1e-12)
        assert np.all(g >= sub.w(0.0, xi - s_minus) - 1e-12)

    def test_small_K_rejected(self, homog_inst, homog_front):
        with pytest.raises(ValueError):
            st.build_supersub(homog_inst, "super", homog_front.speed, K=0.01)


class TestGlobalStability:
    def test_exact_translate_floor(self, homog_inst, homog_front):
        L = homog_inst.L
        shift = 3.0 * L

        def g(x):
            return homog_front.interp(x - shift, x / L)

        rep = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(60.0))
        assert rep.accepted
        assert rep.final_error < 1e-4
        assert rep.tau_g == pytest.approx(shift / homog_front.speed, abs=0.02)

    def test_perturbed_front_positive_rate(self, homog_inst, homog_front):
        def g(x):
            bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
            return np.clip(homog_front.interp(x, x / homog_inst.L) + bump, 0.0, 1.0)

        rep = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(100.0))
        assert rep.accepted
        assert np.isfinite(rep.mu_fit) and rep.mu_fit > 0
        assert rep.final_error < 1e-4

    def test_violating_datum_rejected(self, homog_inst, homog_front):
        def g(x):
            return np.where(x < 0, 0.5, 0.0)   # liminf at -inf too small

        with pytest.raises(ValueError):
            st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(10.0))

    def test_budget_shorter_than_one_probe_rejected(self, homog_inst, homog_front,
                                                    monkeypatch):
        # no probe fits in the budget: a clear error before any step is taken
        runs = []
        monkeypatch.setattr(Window, "run", lambda self, *args: runs.append(args))
        with pytest.raises(ValueError, match="budget 0.5 is shorter than one probe interval"):
            st.global_stability_experiment(homog_inst, homog_front,
                                           lambda x: np.where(x < 0.0, 1.0, 0.0),
                                           fr.Budget(0.5))
        assert runs == []


class TestInitialv2:
    def test_trapped_datum_accepted(self, homog_inst, homog_front):
        states = spx.find_periodic_steady_states(homog_inst)

        def g(x):
            return 0.45 - 0.40 / (1.0 + np.exp(-x / 0.8))

        rep = st.initialv2_experiment(homog_inst, homog_front, states, g, fr.Budget(220.0))
        assert rep.accepted
        assert rep.mu_fit > 0
        assert rep.diagnostics["t_frontlike"] < 50.0

    def test_datum_below_state_rejected(self, homog_inst, homog_front):
        states = spx.find_periodic_steady_states(homog_inst)

        def g(x):
            return 0.25 - 0.2 / (1.0 + np.exp(-x))

        with pytest.raises(ValueError):
            st.initialv2_experiment(homog_inst, homog_front, states, g, fr.Budget(10.0))

    def test_never_front_like_reason(self, homog_inst, homog_front):
        # a flat datum at 1/2 is nowhere near front-like within half the budget
        rep = st.initialv2_experiment(homog_inst, homog_front, [],
                                      lambda x: np.full_like(x, 0.5), fr.Budget(4.0))
        assert not rep.accepted
        assert rep.diagnostics["reason"] == "not-front-like"
        assert rep.diagnostics["reason"] in fr.REASONS

    def test_non_unstable_state_rejected(self, homog_inst, homog_front):
        fake = spx.SteadyState(x=np.arange(4.0), u=np.full(4, 0.3), residual=0.0,
                               lambda1=-0.1, cls="stable")

        def g(x):
            return np.where(x < 0, 0.9, 0.1)

        with pytest.raises(ValueError):
            st.initialv2_experiment(homog_inst, homog_front, [fake], g, fr.Budget(10.0))


@pytest.fixture(scope="module")
def coarse(homog_inst):
    cfg = fr.FrontRunConfig(nodes_per_period=12, halfwidth=16.0, tol_puls=2e-4)
    return fr.compute_pulsating_front(homog_inst, cfg, fr.Budget(400.0))


class TestSpectrum:
    def test_unit_eigenvalue_and_direction(self, homog_inst, coarse, homog_front):
        # the coarse front fits the node budget as is; the 64-node/period
        # front is coarsened before its extent is trimmed
        for fr_ in (coarse, homog_front):
            spec = st.poincare_spectrum(homog_inst, fr_, n_nodes=400)
            assert spec.n_nodes <= 400
            assert spec.leading_gap < 1e-2
            assert spec.cosine_similarity > 0.99

    def test_contraction_below_leading(self, homog_inst, coarse):
        spec = st.poincare_spectrum(homog_inst, coarse, n_nodes=400)
        assert spec.second_modulus < 1.0
        assert spec.n_above_ess < 10
        assert len(spec.flagged) == spec.n_above_ess

    def test_linear_decay_bound(self, homog_inst):
        gamma = 0.25
        T = 3.5
        mods = linear_decay_spectrum(homog_inst, gamma, T, n_nodes=150)
        assert mods[0] <= math.exp(-gamma * T) * (1.0 + 0.05)

    @pytest.mark.slow
    def test_fitted_rate_within_spectral_gap_bound(self, homog_inst, homog_front, coarse):
        # the observed convergence rate cannot beat the linearized gap by
        # more than the allowed slack
        spec = st.poincare_spectrum(homog_inst, coarse, n_nodes=400)
        gap_rate = -math.log(spec.second_modulus) / spec.T

        def g(x):
            bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
            return np.clip(homog_front.interp(x, x / homog_inst.L) + bump, 0.0, 1.0)

        rep = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(100.0))
        assert rep.mu_fit <= 1.3 * gap_rate


def interp_reference(front, xi, y):
    """The bilinear lattice interpolation written with 2-D fancy indexing."""
    xi = np.asarray(xi, dtype=float)
    y = np.mod(np.asarray(y, dtype=float), 1.0)
    h = front.xi[1] - front.xi[0]
    s = np.clip((xi - front.xi[0]) / h, 0.0, len(front.xi) - 1 - 1e-12)
    i = s.astype(int)
    wi = s - i
    m = len(front.y)
    sy = y * m
    j = np.minimum(sy.astype(int), m - 1)
    wj = sy - j
    jp = (j + 1) % m
    p = front.phi
    return ((1 - wi) * ((1 - wj) * p[i, j] + wj * p[i, jp])
            + wi * ((1 - wj) * p[i + 1, j] + wj * p[i + 1, jp]))


def same_bits(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBoundFront:
    # a lattice with genuine y-dependence: xi in [-5, 5], 8 columns in y
    LATTICE = fr.FrontSolution(
        speed=0.3, xi=np.linspace(-5.0, 5.0, 41), y=np.arange(8) / 8,
        phi=np.random.default_rng(11).uniform(0.0, 1.0, (41, 8)),
        pulsating_error=0.0, mu1_fit=None, mu2_fit=None, stationary=False,
        speed_estimate=None, replica_spread=0.0, diagnostics={})
    # past both clamped ends of xi and across the periodic wrap of y, with the
    # end nodes, 1 - ulp and the exact period ends among the drawn values
    XI = hyp.one_of(hyp.floats(-8.0, 8.0), hyp.sampled_from([-5.0, 5.0, 4.999999999999]))
    Y = hyp.one_of(hyp.floats(-3.0, 3.0),
                   hyp.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 - 2**-53, -2**-60, 2.0]))

    @given(XI, Y)
    @settings(max_examples=300, deadline=None)
    def test_scalar_bitwise(self, xi, y):
        front = self.LATTICE
        assert same_bits(front.interp(xi, y), interp_reference(front, xi, y))

    @given(hyp.lists(XI, min_size=1, max_size=12), hyp.lists(Y, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_broadcast_bitwise(self, xis, ys):
        front = self.LATTICE
        xi, y = np.array(xis), np.array(ys)
        cases = [(xi[:, None], y[None, :]), (xi, y[0]), (xi[0], y)]
        if len(xis) == len(ys):
            cases.append((xi, y))
        for a, b in cases:
            assert same_bits(front.interp(a, b), interp_reference(front, a, b))

    @given(hyp.lists(XI, min_size=1, max_size=40), hyp.sampled_from([4, 8, 16]))
    @settings(max_examples=150, deadline=None)
    def test_on_cells_bitwise(self, xis, M):
        # fewer, as many and more cells per period than lattice columns
        front = self.LATTICE
        xi = np.array(xis)
        y = (np.arange(xi.size) % M) / M
        out = front.on_cells(M, xi.size)(xi)
        assert same_bits(out, interp_reference(front, xi, y))
        assert same_bits(out, front.interp(xi, y))

    @pytest.mark.parametrize("datum", ["shifted", "step"])
    def test_experiment_equals_per_call_interp(self, homog_inst, homog_front, datum, monkeypatch):
        L = homog_inst.L
        g = {"shifted": lambda x: homog_front.interp(x - 3.0 * L, x / L),
             "step": lambda x: np.where(x < 0.0, 1.0, 0.0)}[datum]
        fast = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(60.0))
        # every trial phase evaluates the fancy-indexed interpolation afresh
        monkeypatch.setattr(fr.FrontSolution, "on_cells", lambda self, M, n: lambda xi:
                            interp_reference(self, xi, (np.arange(n) % M) / M))
        slow = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(60.0))
        assert (fast.tau_g, fast.mu_fit, fast.sup_errors) == \
            (slow.tau_g, slow.mu_fit, slow.sup_errors)
        assert fast == slow

    def test_window_cells_are_lab_cells(self, homog_inst, homog_front, monkeypatch):
        # the reference stays on the window's cells (q mod M)/M; at L = 1 they
        # are exactly the lab cell coordinates at every offset the window visits
        offsets = [0.0]
        slide = Window.slide

        def recorded(self, p):
            slide(self, p)
            offsets.append(self.x_offset)

        monkeypatch.setattr(Window, "slide", recorded)
        st.global_stability_experiment(homog_inst, homog_front,
                                       lambda x: np.where(x < 0.0, 1.0, 0.0), fr.Budget(60.0))
        assert len(set(offsets)) > 1
        grid = st._experiment_window(homog_inst, homog_front, np.zeros_like).grid
        M, L = grid.nodes_per_period, homog_inst.L
        cells = (np.arange(grid.n) % M) / M
        for x_offset in offsets:
            assert same_bits(cells, np.mod((grid.nodes + x_offset) / L, 1.0))
