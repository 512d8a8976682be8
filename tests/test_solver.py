import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.profiles as pr
import pulsefront.solver as sv
import pulsefront.stability as st


@pytest.fixture(scope="module")
def inst():
    coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.3), L=1.0)


@pytest.fixture(scope="module")
def hetero_inst():
    coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(2.0, 1.0))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.3), L=0.5)


def make(inst, halfwidth=8.0, npp=64):
    return sv.build_grid(inst, halfwidth, npp)


def evolve(inst, g, dt, u, t_final):
    """u stepped from t = 0 to t_final."""
    out, _ = sv.Stepper(inst, g, dt).run(np.array(u, dtype=float), 0.0,
                                         int(round(t_final / dt)))
    return out


def diffusion_inst(coeff_curve, L):
    """The instance of coefficient coeff_curve and zero reaction."""
    zero_rx = pr.ReactionProfile(
        f=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
        df=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
        theta=pr.HarmonicCurve(0.5), gamma=0.1, delta=0.1, lip_k=1e-6)
    return pr.ProblemInstance(coeff=pr.CoefficientProfile.from_curve(coeff_curve),
                              reaction=zero_rx, L=L)


class TestGrid:
    def test_extent_is_whole_periods(self, hetero_inst):
        g = make(hetero_inst, 5.3)
        periods = (g.x_max - g.x_min) / hetero_inst.L
        assert periods == pytest.approx(round(periods))
        assert g.nodes_per_period == 64

    def test_faces_match_midpoints(self, hetero_inst):
        g = make(hetero_inst)
        mids = g.nodes[:-1] + g.h / 2
        np.testing.assert_allclose(g.a_face, hetero_inst.a_L(mids), atol=1e-14)

    def test_nodes_stored_read_only(self, hetero_inst):
        g = make(hetero_inst)
        assert g.nodes is g.nodes
        assert np.array_equal(g.nodes, g.x_min + g.h * np.arange(g.n))
        with pytest.raises(ValueError):
            g.nodes[0] = 0.0


DIFFUSIONS = pytest.mark.parametrize(
    "curve,L", [(pr.HarmonicCurve(1.0), 1.0), (pr.HarmonicCurve(2.0, 1.0), 0.5)],
    ids=["constant", "cosine"])


class TestPureDiffusion:
    @DIFFUSIONS
    def test_steady_state_between_pinned_ends_stays(self, curve, L):
        # with no reaction the discrete steady state from the pinned 1 to the
        # pinned 0 carries one flux through every face: its drops go as 1/a
        inst = diffusion_inst(curve, L)
        g = sv.build_grid(inst, 4.0, 64)
        resistance = np.concatenate(([0.0], np.cumsum(1.0 / g.a_face)))
        steady = 1.0 - resistance / resistance[-1]
        assert steady[0] == 1.0 and steady[-1] == 0.0
        out = evolve(inst, g, 0.05, steady, 2.0)
        # round-off of the banded solves, amplified by cond(I - dt A)
        assert np.max(np.abs(out - steady)) < 5e-12

    @DIFFUSIONS
    def test_flux_balance(self, curve, L):
        # with no reaction a step changes the interior mass by exactly dt
        # times the net flux a u_x through the two end faces at the new time
        inst = diffusion_inst(curve, L)
        g = sv.build_grid(inst, 12.0, 64)
        dt = 0.01
        st = sv.Stepper(inst, g, dt)
        u = np.exp(-g.nodes**2)
        for _ in range(100):
            new = st.step_values(u)
            change = g.h * np.sum(new[1:-1] - u[1:-1])
            flux = (g.a_face[-1] * (new[-1] - new[-2])
                    - g.a_face[0] * (new[1] - new[0])) / g.h
            # the sum over some thousand nodes leaves a round-off of about 1e-12
            assert change == pytest.approx(dt * flux, rel=1e-11)
            u = new
        assert u[0] == 1.0 and u[-1] == 0.0


class TestResidualStationary:
    def test_zero_state(self, inst):
        g = make(inst)
        assert sv.residual_stationary(g, np.zeros(g.n), inst) == 0.0

    def test_constant_theta_state(self, inst):
        g = make(inst)
        assert sv.residual_stationary(g, np.full(g.n, 0.3), inst) < 1e-15

    def test_exact_steady_front_order_two(self):
        # the symmetric cubic's standing front: residual O(h^2), < 1e-3 at h=0.01
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(1.0))
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=1.0)
        resids = []
        for npp in (100, 200):
            g = sv.build_grid(inst, 10.0, npp)
            u = 1.0 / (1.0 + np.exp(g.nodes / np.sqrt(2.0)))
            resids.append(sv.residual_stationary(g, u, inst))
        assert resids[0] < 1e-3
        ratio = resids[0] / resids[1]
        assert 3.5 < ratio < 4.5


class TestDeterminism:
    def test_split_evolution_is_bitwise(self, inst):
        g = make(inst)
        f0 = sv.front_initial_datum(g, rate=0.5 / g.h)
        stepper = sv.Stepper(inst, g, 0.02)
        a, t = stepper.run(f0.copy(), 0.0, 50)
        a, _ = stepper.run(a, t, 75)
        b, _ = stepper.run(f0.copy(), 0.0, 125)
        assert np.array_equal(a, b)


class TestComparison:
    def test_randomized_ordered_pairs(self, hetero_inst):
        # discrete order preservation for the implicit-diffusion scheme
        g = make(hetero_inst, 6.0)
        rng = np.random.default_rng(7)
        st = sv.Stepper(hetero_inst, g, 0.05)
        for _ in range(10):
            base = np.clip(rng.random(g.n), 0.0, 1.0)
            upper = np.clip(base + 0.3 * rng.random(g.n), 0.0, 1.0)
            base[0] = upper[0] = 1.0
            base[-1] = upper[-1] = 0.0
            lo, _ = st.run(base.copy(), 0.0, 40)
            hi, _ = st.run(upper.copy(), 0.0, 40)
            assert np.min(hi - lo) >= -1e-10

    def test_front_run_stays_in_unit_interval(self, inst):
        g = make(inst, 10.0)
        out = evolve(inst, g, 0.05, sv.front_initial_datum(g, rate=0.5 / g.h), 10.0)
        assert out.min() >= -1e-12
        assert out.max() <= 1.0 + 1e-12


class TestWindow:
    @pytest.mark.parametrize("drift_periods,slid", [(5.3, 5), (-4.6, -5)])
    def test_recenter_keeps_lab_position(self, hetero_inst, drift_periods, slid):
        g = make(hetero_inst)
        L = hetero_inst.L
        center = 0.5 * (g.x_min + g.x_max)
        slack = max(L, sv.RECENTER_FRAC * 0.5 * (g.x_max - g.x_min))
        u0 = sv.front_initial_datum(g, interface=center + drift_periods * L,
                                    rate=0.5 / g.h)
        win = sv.Window(sv.Stepper(hetero_inst, g, 0.005), u0)
        win.run(20)
        pos = fr.level_position(g.nodes, win.u)
        assert abs(pos - center) >= slack
        assert win.recenter(pos) == slid
        moved = fr.level_position(g.nodes, win.u)
        assert win.x_offset == slid * L
        assert abs(win.x_offset + moved - pos) < 1e-12
        assert abs(moved - center) < slack
        assert win.recenter(moved) == 0
        assert win.x_offset == slid * L

    @pytest.mark.parametrize("p", [2, -3])
    def test_slide_pins_both_ends(self, hetero_inst, p):
        g = make(hetero_inst, 4.0)
        # the random datum's end values are not 1 and 0: the slide fills the
        # vacated periods with 1 (left) or 0 (right) and pins both ends again
        u0 = np.random.default_rng(3).random(g.n)
        win = sv.Window(sv.Stepper(hetero_inst, g, 0.005), u0)
        win.slide(p)
        idx = np.arange(g.n) + p * g.nodes_per_period
        inside = (idx >= 0) & (idx < g.n)
        expect = np.full(g.n, 0.0 if p > 0 else 1.0)
        expect[inside] = u0[idx[inside]]
        expect[0], expect[-1] = 1.0, 0.0
        np.testing.assert_array_equal(win.u, expect)
        assert win.x_offset == p * g.L and win.t == 0.0


    @pytest.mark.parametrize("p", [2, -3])
    def test_slide_continues_the_tails(self, hetero_inst, p):
        # each vacated period is the one beside it times e^(-mu L) in the
        # distance to that end's state, and the ends obey their ratios
        g = make(hetero_inst, 4.0)
        m0 = g.nodes_per_period
        tails = (sv.Tail(0.6, 1.0 + 0.3 * np.cos(2 * np.pi * np.arange(m0) / m0) ** 2),
                 sv.Tail(0.9, np.linspace(1.0, 1.4, m0)))
        st = sv.Stepper(hetero_inst, g, 0.005, tails)
        u0 = np.random.default_rng(3).random(g.n)
        win = sv.Window(st, u0)
        win.slide(p)
        s = p * m0
        u = win.u
        if p > 0:
            assert np.array_equal(u[1:g.n - s], u0[s + 1:])
            q = np.exp(-0.9 * g.L)
            np.testing.assert_allclose(u[g.n - s:-1], q * u[g.n - s - m0:-1 - m0], rtol=1e-14)
        else:
            assert np.array_equal(u[-s:-1], u0[:s - 1])
            q = np.exp(-0.6 * g.L)
            np.testing.assert_allclose(1.0 - u[1:-s], q * (1.0 - u[1 + m0:-s + m0]), rtol=1e-14)
        assert u[0] == 1.0 - st.r_left * (1.0 - u[1])
        assert u[-1] == st.r_right * u[-2]


class TestInitialDatum:
    def test_monotone_and_endpoints(self, inst):
        g = make(inst)
        f = sv.front_initial_datum(g, rate=0.5 / g.h)
        assert f[0] == 1.0
        assert f[-1] == 0.0
        assert np.all(np.diff(f) <= 0.0)

    def test_tanh_midpoint(self, inst):
        g = make(inst)
        f = sv.front_initial_datum(g, interface=g.nodes[g.n // 2], rate=0.5 / g.h)
        mid = np.interp(g.nodes[g.n // 2], g.nodes, f)
        assert mid == pytest.approx(0.5, abs=1e-12)

    def test_interface_outside_grid_rejected(self, inst):
        g = make(inst)
        with pytest.raises(ValueError):
            sv.front_initial_datum(g, interface=g.x_max + 1.0, rate=0.5 / g.h)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_rate_not_positive_finite_rejected(self, inst, rate):
        g = make(inst)
        with pytest.raises(ValueError, match="rate"):
            sv.front_initial_datum(g, rate=rate)

    def test_logistic_of_rate(self, inst):
        g = make(inst)
        rate = 1.7
        f = sv.front_initial_datum(g, rate=rate)
        inner = slice(1, -1)
        np.testing.assert_allclose(f[inner], 1.0 / (1.0 + np.exp(rate * g.nodes[inner])),
                                   rtol=0.0, atol=1e-15)


class TestConfigGuards:
    def test_reaction_step_budget(self, inst):
        g = make(inst)
        with pytest.raises(sv.SolverError):
            sv.Stepper(inst, g, 1.0)

    @pytest.mark.parametrize("dt", [np.nan, 0.0, -1.0])
    def test_step_not_positive_finite_rejected(self, inst, dt, monkeypatch):
        g = make(inst)
        factored = []
        monkeypatch.setattr(sv, "factor_spd", lambda *args: factored.append(args))
        with pytest.raises(ValueError, match="dt"):
            sv.Stepper(inst, g, dt)
        assert factored == []


def test_excursion_measure():
    assert sv.excursion(0.0, 1.0) == 0.0
    assert sv.excursion(-0.1, 1.1) == 0.0
    assert sv.excursion(0.5, 1.3) == pytest.approx(0.2)
    assert sv.excursion(-0.25, 1.2) == pytest.approx(0.15)


class TestChooseDt:
    def test_reaction_budget_binds(self):
        assert sv.choose_dt(10.0, 1.0, 0.1) == 0.4 / 10.0

    def test_accuracy_limit_binds(self):
        h = 1.0 / 64
        assert sv.choose_dt(3.4, h, 0.3) == 0.25 * h / 0.3
        assert sv.choose_dt(3.4, h, -0.3) == sv.choose_dt(3.4, h, 0.3)

    def test_fixed_cap_binds(self):
        # the theta = 0.3 cubic (K = 3.4) on a coarse grid
        assert sv.choose_dt(3.4, 1.0, 0.1) == 0.05

    def test_zero_speed_has_no_accuracy_limit(self):
        assert sv.choose_dt(10.0, 1e-3, 0.0) == 0.4 / 10.0
        assert sv.choose_dt(0.0, 1e-3, 0.0) == 0.05

    def test_reference_front_dt_unchanged(self, homog_front):
        # the accuracy limit at the speed estimate, as before the rule moved
        assert homog_front.diagnostics["dt"].hex() == "0x1.7e3f56c6530c1p-7"

    def test_stability_experiment_dt_unchanged(self, homog_inst, homog_front):
        # the accuracy limit at the front's speed: these bits follow the bits
        # of the reference front's c, so any change to the front run moves them
        L = homog_inst.L
        rep = st.global_stability_experiment(
            homog_inst, homog_front, lambda x: homog_front.interp(x - 3.0 * L, x / L),
            fr.Budget(3.0))
        assert rep.diagnostics["dt"].hex() == "0x1.c507a2970ae1dp-7"


def reference_step(inst, grid, dt, u):
    """One step through the full n-row banded matrix with identity Dirichlet
    rows that pin 1 and 0."""
    from scipy.linalg import solve_banded
    n, h, af = grid.n, grid.h, grid.a_face
    lo = np.zeros(n)
    up = np.zeros(n)
    lo[1:-1] = af[:-1] / h**2
    up[1:-1] = af[1:] / h**2
    di = -(lo + up)
    y = np.mod(grid.nodes / inst.L, 1.0)
    rhs = u + dt * inst.reaction.f(y, u)
    rhs[0], rhs[-1] = 1.0, 0.0
    ab = np.zeros((3, n))
    ab[0, 2:] = -dt * up[1:-1]
    ab[1, :] = 1.0 - dt * di
    ab[2, :-2] = -dt * lo[1:-1]
    return solve_banded((1, 1), ab, rhs)


def eliminated_step(inst, grid, dt, u, r_left, r_right):
    """One step through the dense interior matrix with the end nodes
    eliminated by 1 - u_0 = r_left (1 - u_1) and u_{n-1} = r_right u_{n-2},
    the ends then written from those relations."""
    n, h, af = grid.n, grid.h, grid.a_face
    lo, up = af[:-1] / h**2, af[1:] / h**2      # of the interior nodes 1..n-2
    A = np.diag(1.0 + dt * (lo + up))
    A[np.arange(n - 3), np.arange(1, n - 2)] = -dt * up[:-1]
    A[np.arange(1, n - 2), np.arange(n - 3)] = -dt * lo[1:]
    A[0, 0] -= dt * r_left * lo[0]
    A[-1, -1] -= dt * r_right * up[-1]
    y = np.mod(grid.nodes / inst.L, 1.0)
    rhs = (u + dt * inst.reaction.f(y, u))[1:-1]
    rhs[0] += dt * lo[0] * (1.0 - r_left)
    inner = np.linalg.solve(A, rhs)
    return np.concatenate([[1.0 - r_left * (1.0 - inner[0])], inner,
                           [r_right * inner[-1]]])


class TestFactoredStep:
    def test_matches_full_matrix_solve(self, hetero_inst):
        g = make(hetero_inst, 4.0)
        # solver.choose_dt picks 0.0044 on this grid; the gap between two
        # direct solves scales with cond(I - dt*D), about 1 + 4*dt*a_max/h^2
        dt = 0.005
        u0 = sv.front_initial_datum(g, rate=0.5 / g.h)
        u0[1:-1] += 0.05 * np.sin(7.0 * g.nodes[1:-1])  # leave [0, 1] in places
        st = sv.Stepper(hetero_inst, g, dt)
        u = u0
        for _ in range(5):
            ref = reference_step(hetero_inst, g, dt, u)
            u = st.step_values(u)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
        # tail ends whose ratios r lie in (0, 1), against the same system
        # with the end nodes eliminated, solved as a dense matrix
        m0 = g.nodes_per_period
        tails = (sv.Tail(0.6, 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(m0) / m0) ** 2),
                 sv.Tail(0.9, np.linspace(1.0, 1.4, m0)))
        st = sv.Stepper(hetero_inst, g, dt, tails)
        # r = e^(-mu h) psi(y_end)/psi(y_next): node 0 is cell 0 and node 1
        # cell 1; node n-1 is cell 0 and node n-2 cell m0 - 1
        left, right = tails
        assert st.r_left == pytest.approx(np.exp(-0.6 * g.h) * left.psi[0] / left.psi[1],
                                          rel=1e-15)
        assert st.r_right == pytest.approx(np.exp(-0.9 * g.h) * right.psi[0] / right.psi[-1],
                                           rel=1e-15)
        assert 0.0 < st.r_left < 1.0 and 0.0 < st.r_right < 1.0
        u = u0
        for _ in range(5):
            ref = eliminated_step(hetero_inst, g, dt, u, st.r_left, st.r_right)
            u = st.step_values(u)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pinned_ends_are_the_pinned_step_bitwise(self, hetero_inst):
        # r = 0 is the step with the ends pinned to 1 and 0, bit for bit: its
        # factor, its left coupling dt * lower[1], the written ends (+0.0 on
        # the right even below 0) and the slide's fill of 1 and 0
        g = make(hetero_inst, 4.0)
        dt, n = 0.005, g.n
        st = sv.Stepper(hetero_inst, g, dt)
        assert st.r_left == 0.0 and st.r_right == 0.0
        lower, diag, upper = sv.flux_stencil(g.a_face, g.h)
        factor = sv.factor_spd(1.0 - dt * diag[1:n-1], -dt * upper[1:n-2])
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(st.factor, factor))
        u = sv.front_initial_datum(g, rate=0.5 / g.h)
        u[1:-1] -= 0.05 * np.abs(np.sin(7.0 * g.nodes[1:-1]))   # below 0 at the right end
        for _ in range(3):
            rhs = u + dt * st.reaction_at(u)
            rhs[0], rhs[-1] = 1.0, 0.0
            rhs[1] += dt * lower[1]
            rhs[1:-1] = sv.solve_banded(factor, rhs[1:-1])
            u = st.step_values(u)
            assert np.array_equal(u.view(np.uint64), rhs.view(np.uint64))
        u0 = np.random.default_rng(5).uniform(-0.2, 1.2, n)
        for p in (2, -3):
            win = sv.Window(st, u0)
            win.slide(p)
            s = p * g.nodes_per_period
            expect = np.full(n, 0.0 if p > 0 else 1.0)
            if p > 0:
                expect[:n - s] = u0[s:]
            else:
                expect[-s:] = u0[:s]
            expect[0], expect[-1] = 1.0, 0.0
            assert np.array_equal(win.u.view(np.uint64), expect.view(np.uint64))

    def test_reference_tails_are_the_closed_form(self, inst):
        # a = 1, theta = 0.3: the tail operators have constant coefficients,
        # so psi is constant and mu is the root of mu^2 -+ c mu + f_u = 0
        homog = pr.homogenized_data(inst.coeff, inst.reaction)
        c = 0.4 / np.sqrt(2.0)
        for solve in (False, True):
            left, right = fr.window_tails(inst, homog, c, 64, solve)
            assert abs(right.mu - (c + np.sqrt(c * c + 4 * 0.3)) / 2) < 1e-10
            assert abs(left.mu - (-c + np.sqrt(c * c + 4 * 0.7)) / 2) < 1e-10
            for tail in (left, right):
                assert len(tail.psi) == 64 and np.ptp(tail.psi) < 1e-12

    def test_in_place_update_bitwise_equal(self, hetero_inst):
        # rhs = f(u); rhs *= dt; rhs += u keeps every bit of u + dt * f(u),
        # inside [0, 1] and on the linear extension outside it
        g = make(hetero_inst, 4.0)
        st = sv.Stepper(hetero_inst, g, 0.005)
        u = sv.front_initial_datum(g, rate=0.5 / g.h)
        wobble = np.zeros(g.n)
        wobble[1:-1] = 0.05 * np.sin(7.0 * g.nodes[1:-1])
        for u in (u, u + wobble):
            for _ in range(3):
                rhs = u + st.dt * st.reaction_at(u)
                rhs[0], rhs[-1] = 1.0, 0.0
                rhs[1] += st._couple_left
                rhs[1:-1] = sv.solve_banded(st.factor, rhs[1:-1])
                u = st.step_values(u)
                assert np.array_equal(u.view(np.uint64), rhs.view(np.uint64))

    def test_single_interior_node(self, hetero_inst):
        L = hetero_inst.L
        g = sv.Grid1D(x_min=0.0, x_max=L, n=3, h=L / 2, L=L,
                      a_face=np.asarray(hetero_inst.a_L(np.array([L / 4, 3 * L / 4]))))
        # end values other than 1 and 0 in u are pinned back by the step
        u = np.array([0.9, 0.55, 0.2])
        ref = reference_step(hetero_inst, g, 0.02, u)
        out = sv.Stepper(hetero_inst, g, 0.02).step_values(u)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert out[0] == 1.0 and out[-1] == 0.0


class TestFluxOperator:
    @staticmethod
    def _cosine_case(n):
        # a(x) = 2 + cos x on [0, 2 pi), u = sin x: (a u')' = -2 sin x - sin 2x
        h = 2.0 * np.pi / n
        x = h * np.arange(n)
        a_face = 2.0 + np.cos(x + 0.5 * h)
        return h, a_face, np.sin(x), -2.0 * np.sin(x) - np.sin(2.0 * x)

    def test_apply_is_second_order(self):
        errs = []
        for n in (64, 128, 256):
            h, af, u, exact = self._cosine_case(n)
            per = sv.flux_apply(af, h, u, periodic=True)
            dirichlet = sv.flux_apply(af[:-1], h, u)
            assert np.array_equal(dirichlet, per[1:-1])
            errs.append(float(np.max(np.abs(per - exact))))
            assert errs[-1] < 0.5 * h**2
        assert 3.8 < errs[0] / errs[1] < 4.2 and 3.8 < errs[1] / errs[2] < 4.2

    def test_stencil_rows_match_apply(self):
        h, af, u, _ = self._cosine_case(40)
        lo, di, up = sv.flux_stencil(af, h, periodic=True)
        rows = lo * np.roll(u, 1) + di * u + up * np.roll(u, -1)
        np.testing.assert_allclose(rows, sv.flux_apply(af, h, u, periodic=True),
                                   atol=1e-12 * np.max(np.abs(di)))

    def test_dirichlet_rows_equal_periodic_rows_away_from_wrap(self):
        h, af, _, _ = self._cosine_case(40)
        dl, dd, du = sv.flux_stencil(af[:-1], h)
        pl, pd, pu = sv.flux_stencil(af, h, periodic=True)
        for d, p in ((dl, pl), (dd, pd), (du, pu)):
            assert np.array_equal(d[1:-1], p[1:-1])
            assert d[0] == 0.0 and d[-1] == 0.0

    def test_factored_solve_matches_dense(self):
        rng = np.random.default_rng(5)
        h, af, _, _ = self._cosine_case(50)
        _, diag, upper = sv.flux_stencil(af[:-1], h)
        dt = 0.01
        main, off = 1.0 - dt * diag[1:-1], -dt * upper[1:-2]
        dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        factor = sv.factor_spd(main, off)
        b = rng.standard_normal((main.size, 3))
        expect = np.linalg.solve(dense, b)
        np.testing.assert_allclose(sv.solve_banded(factor, b[:, 0].copy()), expect[:, 0],
                                   rtol=0, atol=1e-12 * np.max(np.abs(expect)))
        np.testing.assert_allclose(sv.solve_banded(factor, np.asfortranarray(b)), expect,
                                   rtol=0, atol=1e-12 * np.max(np.abs(expect)))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(sv.SolverError):
            sv.factor_spd(np.array([1.0, -1.0, 1.0]), np.array([0.5, 0.5]))


class TestBoundReaction:
    Y = np.mod(np.linspace(-3.0, 2.0, 401) / 0.7, 1.0)

    @staticmethod
    def _tabulated():
        ys = np.linspace(0.0, 1.0, 16, endpoint=False)
        return pr.TabulatedPeriodicCurve(ys, 0.4 + 0.1 * np.sin(2 * np.pi * ys))

    @staticmethod
    def _closed_form(theta, scale, y, u):
        """scale * u (1-u) (u - theta(y)), continued by its end slopes."""
        th = np.asarray(theta(y), dtype=float)

        def cubic(v):
            return scale * (v * (1.0 - v) * (v - th))

        def slope(v):
            return scale * (-3.0 * v * v + 2.0 * (1.0 + th) * v - th)
        return np.where(u < 0.0, slope(np.zeros_like(u)) * u,
                        np.where(u > 1.0, slope(np.ones_like(u)) * (u - 1.0),
                                 cubic(np.clip(u, 0.0, 1.0))))

    @pytest.mark.parametrize("kind", ["constant", "cosine", "tabulated", "xin"])
    @pytest.mark.parametrize("leaves_unit", [False, True])
    def test_bitwise_equal_to_closed_form(self, kind, leaves_unit):
        # u inside [0, 1] takes the bound cubic's fast path; u leaving it
        # takes the linear extension
        if kind == "xin":
            # the scaled cubic of make_xin_example(0.2, 1.0, 0.3)
            rx, scale = pr.make_cubic(pr.HarmonicCurve(0.5 - 0.2), scale=0.3 * 0.3), 0.3 * 0.3
        else:
            theta = {"constant": lambda: 0.3,
                     "cosine": lambda: pr.HarmonicCurve(0.45, 0.1),
                     "tabulated": self._tabulated}[kind]()
            rx, scale = pr.make_cubic(theta), 1.0
        rng = np.random.default_rng(3)
        bound = pr.bind_reaction(rx.f, self.Y)
        if leaves_unit:
            draws = (rng.uniform(-0.5, 1.5, self.Y.size), np.linspace(-0.5, 1.5, self.Y.size))
        else:
            draws = (rng.uniform(0.0, 1.0, self.Y.size), np.linspace(0.0, 1.0, self.Y.size))
        for u in draws:
            ref = self._closed_form(rx.theta, scale, self.Y, u)
            assert np.array_equal(bound(u), ref)
            assert np.array_equal(bound(u, (u.min(), u.max())), ref)
            assert np.array_equal(rx.f(self.Y, u), ref)

    @pytest.mark.parametrize("scale", [1.0, 0.09])
    def test_in_place_cubic_bitwise_equal_to_product(self, scale):
        # the hot path builds u (1-u) (u - th) in two temporaries; only
        # commutative operands moved, so every bit of the product formula
        # stays, also for a (y, u) table
        rx = pr.make_cubic(pr.HarmonicCurve(0.45, 0.1), scale=scale)
        y = np.linspace(0.0, 1.0, 33)
        u = np.random.default_rng(5).uniform(0.0, 1.0, 33)
        for yy, uu in ((y, u), (y[:, None], np.linspace(0.0, 1.0, 65)[None, :])):
            th = np.asarray(rx.theta(yy), dtype=float)
            want = uu * (1.0 - uu) * (uu - th)
            want = want if scale == 1.0 else scale * want
            got = rx.f(yy, uu)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_direct_call_broadcasts(self):
        rx = pr.make_cubic(pr.HarmonicCurve(0.45, 0.1))
        y, u = np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 1.5, 7)
        out = rx.f(y[:, None], u[None, :])
        assert out.shape == (5, 7)
        for i in range(5):
            assert np.array_equal(out[i], rx.f(y[i], u))

    def test_plain_callable_fallback(self):
        def f(y, u):
            return np.sin(3.0 * y) * u * (1.0 - u)
        u = np.linspace(-0.5, 1.5, self.Y.size)
        assert np.array_equal(pr.bind_reaction(f, self.Y)(u), f(self.Y, u))


class TestCarriedRange:
    def test_out_of_range_branch_matches_unbound_f(self, hetero_inst):
        # Stepper.run hands each step's (min, max) to the next reaction; a
        # datum outside [0, 1] must still take the linear extension
        g = make(hetero_inst, 4.0)
        u0 = sv.front_initial_datum(g, rate=0.5 / g.h)
        u0[1:-1] += 0.3 * np.sin(7.0 * g.nodes[1:-1])
        assert u0.min() < 0.0 and u0.max() > 1.0
        y = np.mod(g.nodes / hetero_inst.L, 1.0)
        stepper = sv.Stepper(hetero_inst, g, 0.005)
        bound = stepper._reaction
        ranges = []

        def checked(u, u_range=None):
            assert u_range == (u.min(), u.max())
            ranges.append(u_range)
            out = bound(u, u_range)
            assert np.array_equal(out, hetero_inst.reaction.f(y, u))
            return out

        stepper._reaction = checked
        out, _ = stepper.run(u0, 0.0, 40)
        assert len(ranges) == 40
        assert ranges[-1][0] < 0.0 or ranges[-1][1] > 1.0
        # steps whose reaction takes its own range
        plain, u = sv.Stepper(hetero_inst, g, 0.005), u0
        for _ in range(40):
            u = plain.step_values(u)
        assert np.array_equal(out, u)


class TestNonFinite:
    @pytest.mark.parametrize("step", [1, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raises_on_the_step_it_appears(self, bad, step):
        calls = []

        def f(y, u):
            calls.append(1)
            out = np.zeros_like(u)
            if len(calls) == step:
                out[len(u) // 3] = bad
            return out
        rx = pr.ReactionProfile(f=f, df=f, theta=pr.HarmonicCurve(0.5), gamma=0.1,
                                delta=0.1, lip_k=1e-6)
        inst = pr.ProblemInstance(coeff=pr.CoefficientProfile.from_curve(
            pr.HarmonicCurve(1.0)), reaction=rx, L=1.0)
        g = sv.build_grid(inst, 4.0, 16)
        st = sv.Stepper(inst, g, 0.01)
        msg = rf"non-finite value at step {step} \(t={step * 0.01:.6g}\)"
        with pytest.raises(sv.SolverError, match=msg):
            st.run(np.zeros(g.n), 0.0, 10)
