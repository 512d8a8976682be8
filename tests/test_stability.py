import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

import pulsefront.fronts as fr
import pulsefront.profiles as pr
import pulsefront.spectral as spx
import pulsefront.stability as st
from pulsefront.solver import Stepper, Window, build_grid, choose_dt, shift_window


@pytest.fixture(scope="module")
def grid(homog_inst):
    return build_grid(homog_inst, 22.0, 64)


def period_stepper(inst, grid, c):
    """A Stepper on grid whose dt, about 0.05, is T/n for the period T = L/|c|
    of a front of speed c, as the period map needs."""
    T = inst.L / abs(c)
    return Stepper(inst, grid, T / math.ceil(T / 0.05))


@pytest.fixture(scope="module")
def frame(homog_inst, homog_front, grid):
    return period_stepper(homog_inst, grid, homog_front.speed)


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
    factor = Stepper(inst, grid, dt).factor
    P = st.linearized_period_map(factor, pots, grid, dt, 0)
    return np.sort(np.abs(np.linalg.eigvals(P)))[::-1]


def translate(front, L, tau, x):
    """The front's translate phi(x + tau, x/L) at t = 0 with pinned ends."""
    g = front.interp(x + tau, x / L)
    g[0], g[-1] = 1.0, 0.0
    return g


def period_map(stepper, c, g, on_step=None):
    """One period map Window.period of a front of speed c from g: the n steps
    of stepper (dt = T/n) that cover T = L/|c|, then a slide by one period
    along the front."""
    win = Window(stepper, g)
    win.period(round(stepper.grid.L / abs(c) / stepper.dt), 1 if c > 0 else -1,
               on_step)
    return win.u


class TestFrame:
    def test_period(self, homog_inst, homog_front, grid, frame):
        # the steps of one map cover exactly T = L/|c|
        ts = []
        period_map(frame, homog_front.speed,
                   translate(homog_front, homog_inst.L, 0.0, grid.nodes),
                   lambda k, t, u: ts.append(t))
        T = homog_inst.L / abs(homog_front.speed)
        assert len(ts) == math.ceil(T / 0.05)
        assert ts[-1] == pytest.approx(T, rel=1e-12)

    def test_translates_are_ordered(self, homog_inst, homog_front, grid):
        xi = grid.nodes
        v1 = homog_front.interp(xi - 1.0, xi / homog_inst.L)
        v2 = homog_front.interp(xi + 1.0, xi / homog_inst.L)
        core = np.abs(xi) < 15.0
        assert np.all(v1[core] >= v2[core])

    def test_fixed_point_family(self, homog_front, grid, frame, homog_inst):
        for tau in (-2.0, -1.0, 0.0, 1.0, 2.0):
            g = translate(homog_front, homog_inst.L, tau * homog_inst.L, grid.nodes)
            out = period_map(frame, homog_front.speed, g)
            assert np.max(np.abs(out - g)) < 1e-3

    def test_stays_between_rest_states(self, homog_inst, homog_front, grid, frame):
        # 0 and 1, the states the pinned ends hold, order every orbit of the
        # map: data in [0, 1] stay in it, and the period each slide moves in
        # ahead of the front (c > 0) is the rest state 0
        c = homog_front.speed
        assert c > 0.0
        for tau in (-3.0, 0.0, 3.0):
            g = np.clip(translate(homog_front, homog_inst.L, tau, grid.nodes), 0.0, 1.0)
            out = period_map(frame, c, period_map(frame, c, g))
            assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12
            assert out[0] == 1.0 and np.all(out[-grid.nodes_per_period:] == 0.0)

    def test_poincare_monotone(self, homog_inst, homog_front, grid, frame):
        g1 = translate(homog_front, homog_inst.L, 1.0, grid.nodes)   # lower translate
        g2 = translate(homog_front, homog_inst.L, -1.0, grid.nodes)
        assert np.all(g2 >= g1)
        c = homog_front.speed
        p1 = period_map(frame, c, g1)
        p2 = period_map(frame, c, g2)
        assert np.min(p2 - p1) >= -1e-10

    def test_double_map_equals_two_periods(self, homog_inst, homog_front, grid, frame):
        # two maps against 2n steps and one shift by two periods: they differ
        # only by the tail values (about 1e-7 here) that the first shift
        # replaces at the window's edge, and that difference decays inward
        c = homog_front.speed
        g = translate(homog_front, homog_inst.L, 0.5, grid.nodes)
        a = period_map(frame, c, period_map(frame, c, g))
        n = math.ceil(homog_inst.L / abs(c) / 0.05)
        b, _ = frame.run(g.copy(), 0.0, 2 * n)
        b = shift_window(b, 2, grid.nodes_per_period, 1.0, 0.0)
        core = np.abs(grid.nodes) < 10.0
        assert np.max(np.abs(a[core] - b[core])) < 1e-11

    def test_linearization_matches_difference_quotient(self, homog_inst, homog_front):
        # the reference front sampled on a 12-node/period grid
        grid = build_grid(homog_inst, 8.0, 12)
        c = homog_front.speed
        stepper = period_stepper(homog_inst, grid, c)
        n = math.ceil(homog_inst.L / abs(c) / 0.05)
        u0 = translate(homog_front, homog_inst.L, 0.0, grid.nodes)
        pots = np.empty((n, grid.n))
        pots[0] = homog_inst.df_L(grid.nodes, u0)

        def record(k, t, u):
            if k < n:
                pots[k] = homog_inst.df_L(grid.nodes, u)

        base = period_map(stepper, c, u0, record)
        P = st.linearized_period_map(stepper.factor, pots, grid, stepper.dt, 1)
        x = grid.nodes
        v = np.exp(-((x - 1.0) / 2.0) ** 2)
        v[0] = v[-1] = 0.0
        eps = 1e-6
        quotient = (period_map(stepper, c, u0 + eps * v) - base) / eps
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

    def test_steps_cover_whole_periods(self, homog_inst, homog_front):
        # dt = T/n with n the fewest steps no longer than solver.choose_dt
        win = st._experiment_window(homog_inst, homog_front, np.zeros_like)
        c = homog_front.speed
        T = homog_inst.L / abs(c)
        n = math.ceil(T / choose_dt(homog_inst.reaction.lip_k, win.grid.h, c))
        assert abs(n * win.stepper.dt - T) < 1e-12

    def test_forced_recenter_clears_states(self, homog_inst, homog_front, monkeypatch):
        # a recenter at the end of period 5 empties the stored states: the
        # record skips that probe and resumes once three more whole periods
        # are stored
        ends = []

        def recenter(self, pos):
            ends.append(self.t)
            return 1 if len(ends) == 5 else 0

        monkeypatch.setattr(Window, "recenter", recenter)
        L = homog_inst.L
        rep = st.global_stability_experiment(
            homog_inst, homog_front, lambda x: homog_front.interp(x - 3.0 * L, x / L),
            fr.Budget(40.0))
        q = rep.diagnostics["probes_per_period"]
        T = L / abs(homog_front.speed)
        ks = [k for k in range(3 * q, rep.diagnostics["n_probes"] + 1)
              if not 5 * q <= k < 8 * q]
        assert [t for t, _ in rep.sup_errors] == pytest.approx([k * T / q for k in ks],
                                                              rel=1e-12)
        assert ends == pytest.approx([j * T for j in range(1, len(ends) + 1)], rel=1e-12)

    def test_budget_is_a_cap(self, homog_inst, homog_front):
        # the run stops at the first probe below the fit floor, the last one
        # the fit reads, so a longer budget changes nothing
        step = lambda x: np.where(x < 0.0, 1.0, 0.0)
        rep = st.global_stability_experiment(homog_inst, homog_front, step, fr.Budget(120.0))
        longer = st.global_stability_experiment(homog_inst, homog_front, step,
                                                fr.Budget(240.0))
        assert (rep.mu_fit, rep.sup_errors, rep.tau_g) == \
            (longer.mu_fit, longer.sup_errors, longer.tau_g)
        d3s = [e for _, e in rep.sup_errors]
        assert d3s[-1] < st.FIT_FLOOR
        assert min(d3s[:-1]) >= st.FIT_FLOOR
        assert rep.diagnostics["stop"] == "floor"
        assert rep.diagnostics["t_final"] == rep.sup_errors[-1][0] < 120.0

    def test_budget_stop(self, homog_inst, homog_front):
        # the step datum's record is still above the floor at t = 40
        rep = st.global_stability_experiment(homog_inst, homog_front,
                                             lambda x: np.where(x < 0.0, 1.0, 0.0),
                                             fr.Budget(40.0))
        assert rep.diagnostics["stop"] == "budget"
        assert not rep.diagnostics["floor_reached"]
        assert rep.sup_errors[-1][1] >= st.FIT_FLOOR
        q = rep.diagnostics["probes_per_period"]
        T = homog_inst.L / abs(homog_front.speed)
        assert 40.0 - T / q < rep.diagnostics["t_final"] <= 40.0

    def test_slow_front_probes_once_per_unit_time(self, quench_records):
        # lambda = 4: dt = T/305 at the 0.05 step cap, and 305 has no divisor
        # near T = 15.2; the probes sit at step offsets round(j n / q), 20 or
        # 21 steps apart, and repeat in every period
        lam, rec = quench_records[-1]
        assert lam == 4.0
        inst = pr.make_xin_example(0.2, lam, 0.3)
        rep = st.global_stability_experiment(inst, rec.front,
                                             lambda x: np.where(x < 0.0, 1.0, 0.0),
                                             fr.Budget(120.0))
        T = inst.L / abs(rec.front.speed)
        q = rep.diagnostics["probes_per_period"]
        assert q == round(T)
        ts = np.array([t for t, _ in rep.sup_errors])
        assert len(set(np.round(np.diff(ts[:q + 1]) / rep.diagnostics["dt"]))) == 2
        assert ts[q:] - ts[:-q] == pytest.approx(np.full(len(ts) - q, T), rel=1e-12)
        assert rep.diagnostics["fit_points"] >= st.MIN_FIT_POINTS

    def test_long_period_rate(self, unit_coeff):
        # theta = 0.4, T = 7.07: probes at whole periods alone would leave the
        # fit 3 points above the floor; q probes per period give it at least
        # MIN_FIT_POINTS, and the rate is -lambda1 = 3/8 - (3/2)(1/2 - theta)^2
        inst = pr.ProblemInstance(coeff=unit_coeff, reaction=pr.make_cubic(0.4), L=1.0)
        front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(), fr.Budget(300.0))
        rep = st.global_stability_experiment(inst, front,
                                             lambda x: np.where(x < 0.0, 1.0, 0.0),
                                             fr.Budget(120.0))
        assert rep.diagnostics["probes_per_period"] > 1
        assert rep.diagnostics["fit_points"] >= st.MIN_FIT_POINTS
        assert rep.diagnostics["floor_reached"]
        assert rep.mu_fit == pytest.approx(0.36, rel=0.03)


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


def node_budget_grid(inst, front, n_nodes):
    """The grid by search: the front's resolution coarsened one node per
    period at a time, then its extent (a tenth inside the experiments'
    pinned window) trimmed one period at a time."""
    L = inst.L
    npp = max(4, round(L / (front.xi[1] - front.xi[0])))
    halfwidth = st.pinned_halfwidth(front) / 1.1
    grid = build_grid(inst, halfwidth, npp)
    while grid.n > n_nodes and npp > 4:
        npp -= 1
        grid = build_grid(inst, halfwidth, npp)
    while grid.n > n_nodes and halfwidth > 2.0 * L:
        halfwidth -= L
        grid = build_grid(inst, halfwidth, npp)
    return grid


def test_pinned_windows_read_the_fronts_homogenized_data(homog_inst, homog_front,
                                                         homog_spectrum, monkeypatch):
    # the experiments and the spectrum size their pinned windows from the
    # averaged data the front's run used: none is recomputed, and the grids
    # keep 3,521 and 393 nodes
    def refuse(*args, **kwargs):
        raise AssertionError("homogenized data recomputed")

    for mod in (pr, fr, st):
        monkeypatch.setattr(mod, "homogenized_data", refuse, raising=False)
    grids = []
    build = st.build_grid

    def recorded(*args):
        grids.append(build(*args))
        return grids[-1]
    monkeypatch.setattr(st, "build_grid", recorded)
    st.global_stability_experiment(homog_inst, homog_front,
                                   lambda x: np.where(x < 0.0, 1.0, 0.0), fr.Budget(3.0))
    spec = st.poincare_spectrum(homog_inst, homog_front, n_nodes=400)
    assert [g.n for g in grids] == [3521, 393]
    assert np.array_equal(spec.eigenvalues, homog_spectrum.eigenvalues)


class TestSpectrum:
    def test_unit_eigenvalue_and_direction(self, homog_spectrum):
        spec = homog_spectrum
        assert spec.n_nodes <= 400
        assert spec.leading_gap < 1e-2
        assert spec.cosine_similarity > 0.99

    def test_contraction_below_leading(self, homog_spectrum):
        spec = homog_spectrum
        assert spec.second_modulus < 1.0
        assert spec.n_above_ess < 10
        assert len(spec.flagged) == spec.n_above_ess

    @pytest.mark.parametrize("n_nodes", [400, 120, 40, 25])
    def test_one_grid_one_step_one_stepper(self, homog_inst, homog_front, monkeypatch,
                                           n_nodes):
        # the grid comes from one expression, equal to the search; dt from
        # the one step rule; and one Stepper serves orbit and linearization
        calls = {"build_grid": [], "choose_dt": [], "Stepper": []}
        for name in calls:
            orig = getattr(st, name)

            def counted(*args, orig=orig, name=name, **kwargs):
                out = orig(*args, **kwargs)
                calls[name].append(out)
                return out
            monkeypatch.setattr(st, name, counted)
        spec = st.poincare_spectrum(homog_inst, homog_front, n_nodes=n_nodes)
        assert {k: len(v) for k, v in calls.items()} == \
            {"build_grid": 1, "choose_dt": 1, "Stepper": 1}
        grid = calls["build_grid"][0]
        ref = node_budget_grid(homog_inst, homog_front, n_nodes)
        assert (grid.x_min, grid.x_max, grid.n) == (ref.x_min, ref.x_max, ref.n)
        assert spec.n_nodes == grid.n
        assert calls["Stepper"][0].grid is grid

    def test_linear_decay_bound(self, homog_inst):
        gamma = 0.25
        T = 3.5
        mods = linear_decay_spectrum(homog_inst, gamma, T, n_nodes=150)
        assert mods[0] <= math.exp(-gamma * T) * (1.0 + 0.05)

    @pytest.mark.slow
    def test_fitted_rate_within_spectral_gap_bound(self, homog_inst, homog_front,
                                                   homog_spectrum):
        # the observed convergence rate cannot beat the linearized gap by
        # more than the allowed slack
        spec = homog_spectrum
        gap_rate = -math.log(spec.second_modulus) / spec.T

        def g(x):
            bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
            return np.clip(homog_front.interp(x, x / homog_inst.L) + bump, 0.0, 1.0)

        rep = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(100.0))
        assert rep.mu_fit <= 1.3 * gap_rate


def interp_reference(front, xi, y):
    """The bilinear lattice interpolation written with 2-D fancy indexing,
    continued past the lattice in whole periods (m lattice points) by the
    front's tails, as FrontSolution.interp documents."""
    xi = np.asarray(xi, dtype=float)
    y = np.mod(np.asarray(y, dtype=float), 1.0)
    h = front.xi[1] - front.xi[0]
    m = len(front.y)
    top = len(front.xi) - 1
    s = (xi - front.xi[0]) / h
    k_right = np.ceil(np.maximum(s - top, 0.0) / m)
    k_left = np.ceil(np.maximum(-s, 0.0) / m)
    s = s - m * (k_right - k_left)
    s = np.clip(s, 0.0, top - 1e-12)
    i = s.astype(int)
    wi = s - i
    sy = y * m
    j = np.minimum(sy.astype(int), m - 1)
    wj = sy - j
    jp = (j + 1) % m
    p = front.phi
    v = ((1 - wi) * ((1 - wj) * p[i, j] + wj * p[i, jp])
         + wi * ((1 - wj) * p[i + 1, j] + wj * p[i + 1, jp]))
    mu1, mu2 = front.tail_mu
    L = m * h
    v = np.where(k_right > 0, v * np.exp(-mu1 * L * k_right), v)
    return np.where(k_left > 0, 1.0 - np.exp(-mu2 * L * k_left) * (1.0 - v), v)


def same_bits(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBoundFront:
    # a lattice with genuine y-dependence: xi in [-5, 5], 8 columns in y (a
    # period of 2), with tails past both ends; no run made it, so no
    # homogenized data
    LATTICE = fr.FrontSolution(
        speed=0.3, xi=np.linspace(-5.0, 5.0, 41), y=np.arange(8) / 8,
        phi=np.random.default_rng(11).uniform(0.0, 1.0, (41, 8)),
        pulsating_error=0.0, mu1_fit=None, mu2_fit=None, speed_estimate=None,
        diagnostics={}, tail_mu=(0.6, 0.9), homog=None)
    # past both ends of xi (up to two periods of tail) and across the periodic
    # wrap of y, with the end nodes, 1 - ulp and the exact period ends among
    # the drawn values
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

    @pytest.mark.parametrize("datum", ["shifted", "step"])
    def test_experiment_equals_per_call_interp(self, homog_inst, homog_front, datum, monkeypatch):
        L = homog_inst.L
        g = {"shifted": lambda x: homog_front.interp(x - 3.0 * L, x / L),
             "step": lambda x: np.where(x < 0.0, 1.0, 0.0)}[datum]
        fast = st.global_stability_experiment(homog_inst, homog_front, g, fr.Budget(60.0))
        # every trial phase evaluates the fancy-indexed interpolation
        monkeypatch.setattr(fr.FrontSolution, "interp", interp_reference)
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
