import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.profiles as pr
import pulsefront.solver as sv
import pulsefront.stability as st


@pytest.fixture(scope="module")
def inst():
    coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.3), L=1.0)


@pytest.fixture(scope="module")
def hetero_inst():
    coeff = pr.CoefficientProfile.from_curve(pr.CosineCurve(2.0, 1.0))
    return pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.3), L=0.5)


def make(inst, halfwidth=8.0, npp=64):
    return sv.build_grid(inst, halfwidth, npp)


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


class TestFixedPoints:
    def test_zero_stays_zero(self, inst):
        g = make(inst)
        cfg = sv.SolverConfig(dt=0.05, u_left=0.0, u_right=0.0)
        f = sv.Field(g, np.zeros(g.n), 0.0)
        out = sv.evolve(f, inst, cfg, 2.0)
        assert np.max(np.abs(out.values)) == 0.0

    def test_one_stays_one(self, inst):
        g = make(inst)
        cfg = sv.SolverConfig(dt=0.05, u_left=1.0, u_right=1.0)
        f = sv.Field(g, np.ones(g.n), 0.0)
        out = sv.evolve(f, inst, cfg, 2.0)
        # round-off of the banded solves, amplified by cond(I - dt A)
        assert np.max(np.abs(out.values - 1.0)) < 5e-12


def test_pure_diffusion_mass_conservation():
    # zero reaction; Gaussian far from the boundary loses no mass over 100 steps
    coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
    zero_rx = pr.ReactionProfile(
        f=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
        df=lambda y, u: np.zeros_like(np.asarray(u, dtype=float)),
        theta=pr.ConstantCurve(0.5), gamma=0.1, delta=0.1, lip_k=1e-6,
        extended=True)
    inst = pr.ProblemInstance(coeff=coeff, reaction=zero_rx, L=1.0)
    g = sv.build_grid(inst, 12.0, 64)
    u0 = np.exp(-g.nodes**2)
    cfg = sv.SolverConfig(dt=0.01, u_left=0.0, u_right=0.0)
    f = sv.Field(g, u0, 0.0)
    mass0 = np.sum(u0) * g.h
    out = sv.evolve(f, inst, cfg, 100 * cfg.dt)
    mass1 = np.sum(out.values) * g.h
    assert abs(mass1 - mass0) < 1e-10


class TestResidualStationary:
    def test_zero_state(self, inst):
        g = make(inst)
        assert sv.residual_stationary(sv.Field(g, np.zeros(g.n), 0.0), inst) == 0.0

    def test_constant_theta_state(self, inst):
        g = make(inst)
        f = sv.Field(g, np.full(g.n, 0.3), 0.0)
        assert sv.residual_stationary(f, inst) < 1e-15

    def test_exact_steady_front_order_two(self):
        # the symmetric cubic's standing front: residual O(h^2), < 1e-3 at h=0.01
        coeff = pr.CoefficientProfile.from_curve(pr.ConstantCurve(1.0))
        inst = pr.ProblemInstance(coeff=coeff, reaction=pr.make_cubic(0.5), L=1.0)
        resids = []
        for npp in (100, 200):
            g = sv.build_grid(inst, 10.0, npp)
            u = 1.0 / (1.0 + np.exp(g.nodes / np.sqrt(2.0)))
            resids.append(sv.residual_stationary(sv.Field(g, u, 0.0), inst))
        assert resids[0] < 1e-3
        ratio = resids[0] / resids[1]
        assert 3.5 < ratio < 4.5


class TestDeterminism:
    def test_split_evolution_is_bitwise(self, inst):
        g = make(inst)
        cfg = sv.SolverConfig(dt=0.02, u_left=1.0, u_right=0.0)
        f0 = sv.front_initial_datum(g, "tanh")
        a = sv.evolve(sv.evolve(f0, inst, cfg, 1.0), inst, cfg, 2.5)
        b = sv.evolve(f0, inst, cfg, 2.5)
        assert np.array_equal(a.values, b.values)


class TestComparison:
    def test_randomized_ordered_pairs(self, hetero_inst):
        # discrete order preservation for the implicit-diffusion scheme
        g = make(hetero_inst, 6.0)
        cfg = sv.SolverConfig(dt=0.05, u_left=1.0, u_right=0.0)
        rng = np.random.default_rng(7)
        st = sv.Stepper(hetero_inst, g, cfg)
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
        cfg = sv.SolverConfig(dt=0.05, u_left=1.0, u_right=0.0)
        f0 = sv.front_initial_datum(g, "tanh")
        out = sv.evolve(f0, inst, cfg, 10.0)
        assert out.values.min() >= -1e-12
        assert out.values.max() <= 1.0 + 1e-12


class TestInitialDatum:
    @pytest.mark.parametrize("style", ["step", "ramp", "tanh"])
    def test_monotone_and_endpoints(self, inst, style):
        g = make(inst)
        f = sv.front_initial_datum(g, style)
        assert f.values[0] == 1.0
        assert f.values[-1] == 0.0
        assert np.all(np.diff(f.values) <= 0.0)

    def test_tanh_midpoint(self, inst):
        g = make(inst)
        f = sv.front_initial_datum(g, "tanh", interface=g.nodes[g.n // 2])
        mid = np.interp(g.nodes[g.n // 2], g.nodes, f.values)
        assert mid == pytest.approx(0.5, abs=1e-12)

    def test_interface_outside_grid_rejected(self, inst):
        g = make(inst)
        with pytest.raises(ValueError):
            sv.front_initial_datum(g, "tanh", interface=g.x_max + 1.0)


class TestConfigGuards:
    def test_reaction_step_budget(self, inst):
        g = make(inst)
        cfg = sv.SolverConfig(dt=1.0, u_left=1.0, u_right=0.0)
        with pytest.raises(sv.SolverError):
            sv.Stepper(inst, g, cfg)


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
        assert homog_front.diagnostics["dt"].hex() == "0x1.7e3f56c653133p-7"

    def test_stability_experiment_dt_unchanged(self, homog_inst, homog_front):
        L = homog_inst.L
        rep = st.global_stability_experiment(
            homog_inst, homog_front, lambda x: homog_front.interp(x - 3.0 * L, x / L),
            fr.Budget(3.0))
        assert rep.diagnostics["dt"].hex() == "0x1.c50e62b29c635p-7"


def reference_step(inst, grid, cfg, u):
    """One step through the full n-row banded matrix with identity Dirichlet rows."""
    from scipy.linalg import solve_banded
    n, h, af = grid.n, grid.h, grid.a_face
    k = cfg.dt
    lo = np.zeros(n)
    up = np.zeros(n)
    lo[1:-1] = af[:-1] / h**2
    up[1:-1] = af[1:] / h**2
    di = -(lo + up)
    y = np.mod(grid.nodes / inst.L, 1.0)
    rhs = u + cfg.dt * inst.reaction.f(y, u)
    rhs[0], rhs[-1] = cfg.u_left, cfg.u_right
    ab = np.zeros((3, n))
    ab[0, 2:] = -k * up[1:-1]
    ab[1, :] = 1.0 - k * di
    ab[2, :-2] = -k * lo[1:-1]
    return solve_banded((1, 1), ab, rhs)


class TestFactoredStep:
    def test_matches_full_matrix_solve(self, hetero_inst):
        g = make(hetero_inst, 4.0)
        # solver.choose_dt picks 0.0044 on this grid; the gap between two
        # direct solves scales with cond(I - dt*D), about 1 + 4*dt*a_max/h^2
        cfg = sv.SolverConfig(dt=0.005, u_left=1.0, u_right=0.0)
        u = sv.front_initial_datum(g, "tanh").values.copy()
        u[1:-1] += 0.05 * np.sin(7.0 * g.nodes[1:-1])  # leave [0, 1] in places
        st = sv.Stepper(hetero_inst, g, cfg)
        for _ in range(5):
            ref = reference_step(hetero_inst, g, cfg, u)
            u = st.step_values(u)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_single_interior_node(self, hetero_inst):
        L = hetero_inst.L
        g = sv.Grid1D(x_min=0.0, x_max=L, n=3, h=L / 2, L=L,
                      a_face=np.asarray(hetero_inst.a_L(np.array([L / 4, 3 * L / 4]))))
        cfg = sv.SolverConfig(dt=0.02, u_left=0.9, u_right=0.2)
        u = np.array([0.9, 0.55, 0.2])
        ref = reference_step(hetero_inst, g, cfg, u)
        out = sv.Stepper(hetero_inst, g, cfg).step_values(u)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert out[0] == 0.9 and out[-1] == 0.2


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
    def _closed_form(theta, scale, extended, y, u):
        """scale * u (1-u) (u - theta(y)), continued by its end slopes if extended."""
        th = np.asarray(theta(y), dtype=float)

        def cubic(v):
            return scale * (v * (1.0 - v) * (v - th))

        def slope(v):
            return scale * (-3.0 * v * v + 2.0 * (1.0 + th) * v - th)
        if not extended:
            return cubic(u)
        return np.where(u < 0.0, slope(np.zeros_like(u)) * u,
                        np.where(u > 1.0, slope(np.ones_like(u)) * (u - 1.0),
                                 cubic(np.clip(u, 0.0, 1.0))))

    @pytest.mark.parametrize("kind", ["constant", "cosine", "tabulated", "xin"])
    @pytest.mark.parametrize("extended", [False, True])
    def test_bitwise_equal_to_closed_form(self, kind, extended):
        if kind == "xin":
            # the scaled cubic of make_xin_example(0.2, 1.0, 0.3), before the
            # instance extends it
            rx, scale = pr.make_cubic(pr.ConstantCurve(0.5 - 0.2), scale=0.3 * 0.3), 0.3 * 0.3
        else:
            theta = {"constant": lambda: 0.3,
                     "cosine": lambda: pr.CosineCurve(0.45, 0.1),
                     "tabulated": self._tabulated}[kind]()
            rx, scale = pr.make_cubic(theta), 1.0
        if extended:
            rx = pr.extend_reaction(rx)
        rng = np.random.default_rng(3)
        bound = pr.bind_reaction(rx.f, self.Y)
        # the first draw leaves [0, 1], the second stays inside
        for u in (rng.uniform(-0.5, 1.5, self.Y.size), rng.uniform(0.0, 1.0, self.Y.size),
                  np.linspace(-0.5, 1.5, self.Y.size)):
            ref = self._closed_form(rx.theta, scale, extended, self.Y, u)
            assert np.array_equal(bound(u), ref)
            assert np.array_equal(rx.f(self.Y, u), ref)

    def test_direct_call_broadcasts(self):
        rx = pr.extend_reaction(pr.make_cubic(pr.CosineCurve(0.45, 0.1)))
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
        cfg = sv.SolverConfig(dt=0.005, u_left=1.0, u_right=0.0)
        u0 = sv.front_initial_datum(g, "tanh").values.copy()
        u0[1:-1] += 0.3 * np.sin(7.0 * g.nodes[1:-1])
        assert u0.min() < 0.0 and u0.max() > 1.0
        y = np.mod(g.nodes / hetero_inst.L, 1.0)
        stepper = sv.Stepper(hetero_inst, g, cfg)
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
        plain, u = sv.Stepper(hetero_inst, g, cfg), u0
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
        rx = pr.ReactionProfile(f=f, df=f, theta=pr.ConstantCurve(0.5), gamma=0.1,
                                delta=0.1, lip_k=1e-6, extended=True)
        inst = pr.ProblemInstance(coeff=pr.CoefficientProfile.from_curve(
            pr.ConstantCurve(1.0)), reaction=rx, L=1.0)
        g = sv.build_grid(inst, 4.0, 16)
        st = sv.Stepper(inst, g, sv.SolverConfig(dt=0.01))
        msg = rf"non-finite value at step {step} \(t={step * 0.01:.6g}\)"
        with pytest.raises(sv.SolverError, match=msg):
            st.run(np.zeros(g.n), 0.0, 10)
