import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fritpid import adaptive
from fritpid.adaptive import (
    DenominatorUnderflowError,
    DirectionalForgettingRls,
    Estimator,
    ExponentialResettingRls,
    NumericalBreakdownError,
    RegressorGenerator,
    RlsEstimator,
    SingularInformationError,
    symmetric_eigen_bounds,
)
from fritpid.harness import ScenarioConfig, run_scenario
from fritpid.lti import RationalFilter, ReferenceModel

TS = 0.01
I3 = np.eye(3)


def random_stream(rng, n, scale=1.0):
    for _ in range(n):
        phi = scale * rng.standard_normal(3)
        yield phi, float(rng.standard_normal())


class TestRegressorGenerator:
    def test_zero_streams(self):
        gen = RegressorGenerator(ReferenceModel.first_order(TS).filter, TS)
        for _ in range(20):
            phi, d = gen.step(0.0, 0.0)
            assert phi == pytest.approx([0.0, 0.0, 0.0])
            assert d == 0.0

    def test_zero_reference_model_passes_output_through_basis(self):
        gen = RegressorGenerator(RationalFilter([0.0], [1.0]), TS)
        phi, d = gen.step(1.0, 5.0)
        assert phi == pytest.approx([1.0, TS, 1.0 / TS])
        assert d == 0.0

    def test_first_sample_with_strictly_proper_model(self):
        gen = RegressorGenerator(ReferenceModel.first_order(TS).filter, TS)
        phi, d = gen.step(1.0, 1.0)
        # the model output is delayed one step, so {1-Gm}y(0) = y(0)
        assert phi == pytest.approx([1.0, TS, 1.0 / TS])
        assert d == 0.0

    def test_d_is_filtered_input(self):
        gm = ReferenceModel.first_order(TS).filter
        gen = RegressorGenerator(gm, TS)
        u = np.linspace(0.0, 1.0, 30)
        ds = [gen.step(0.0, float(ui))[1] for ui in u]
        assert ds == pytest.approx(gm.filter(u))


class TestRlsEstimator:
    def test_single_step_hand_computation(self):
        est = RlsEstimator([0.0, 0.0, 0.0], p0=1.0, mu=1.0)
        est.update([1.0, 0.0, 0.0], 1.0)
        assert est.theta == pytest.approx([0.5, 0.0, 0.0])
        assert est.P[0, 0] == pytest.approx(0.5)

    def test_zero_regressor_no_forget(self):
        est = RlsEstimator([0.2, 0.1, 0.0], p0=4.0, mu=1.0)
        est.update([0.0, 0.0, 0.0], 3.0)
        assert est.theta == pytest.approx([0.2, 0.1, 0.0])
        assert est.P == pytest.approx(4.0 * I3)

    def test_zero_regressor_exponential_forgetting_inflates_p(self):
        est = RlsEstimator([0.0, 0.0, 0.0], p0=4.0, mu=0.8)
        est.update([0.0, 0.0, 0.0], 3.0)
        assert est.P == pytest.approx(5.0 * I3)

    def test_matches_batch_normal_equations(self):
        rng = np.random.default_rng(41)
        est = RlsEstimator([0.0, 0.0, 0.0], p0=1e6, mu=1.0)
        phis, ds = [], []
        for phi, d in random_stream(rng, 200):
            est.update(phi, d)
            phis.append(phi)
            ds.append(d)
        A = np.asarray(phis)
        b = np.asarray(ds)
        batch = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.linalg.norm(est.theta - batch) / np.linalg.norm(batch) < 1e-6

    @pytest.mark.parametrize("mu", [1.0, 0.9])
    def test_shadow_information_matrix(self, mu):
        rng = np.random.default_rng(42)
        est = RlsEstimator([0.0, 0.0, 0.0], p0=100.0, mu=mu)
        acc = np.linalg.inv(est.P).copy()
        for phi, d in random_stream(rng, 50):
            est.update(phi, d)
            acc = mu * acc + np.outer(phi, phi)
        assert est.R == pytest.approx(acc)

    def test_windup_geometric_decay_of_information(self):
        est = RlsEstimator([0.0, 0.0, 0.0], p0=100.0, mu=0.9)
        for _ in range(200):
            est.update([0.0, 0.0, 0.0], 0.0)
        assert symmetric_eigen_bounds(est.R)[1] == pytest.approx(
            0.01 * 0.9**200, rel=1e-9
        )

    def test_persistent_excitation_keeps_information_bounded(self):
        # rotating orthogonal directions: PE stream
        est = RlsEstimator([0.0, 0.0, 0.0], p0=100.0, mu=0.9)
        rng = np.random.default_rng(43)
        lmins = []
        for k in range(10_000):
            phi = I3[k % 3] * rng.uniform(0.8, 1.2)
            est.update(phi, 0.1)
            lmins.append(symmetric_eigen_bounds(est.R)[0])
        assert min(lmins[10:]) > 0.1

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            RlsEstimator([0.0, 0.0, 0.0], mu=0.0)

    def test_non_finite_sample_rejected(self):
        est = RlsEstimator([0.0, 0.0, 0.0])
        with pytest.raises(NumericalBreakdownError):
            est.update([np.inf, 0.0, 0.0], 1.0)


class TestSampleCheck:
    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_term_raises(self, mode, value, position):
        est = Estimator(mode, [0.1, 0.1, 0.01])
        sample = [0.5, -0.25, 1.0, 2.0]
        sample[position] = value
        with pytest.raises(NumericalBreakdownError, match="non-finite"):
            est.update(sample[:3], sample[3])

    @pytest.mark.parametrize("sample", [
        ([1e308, 1e308, 0.0], 0.0), ([0.0, 0.0, 1e308], 1e308), ([-1e308, 0.0, -1e308], 0.0),
    ])
    def test_finite_terms_whose_sum_overflows_pass_the_check(self, sample):
        # the sum is inf, yet every term is finite: the check lets the sample
        # through (the update itself may still break down on the overflow)
        phi, d = sample
        assert not math.isfinite(sum(phi) + d)
        try:
            Estimator("noforget", [0.0, 0.0, 0.0]).update(phi, d)
        except NumericalBreakdownError as exc:
            assert "non-finite values" not in str(exc)

    @pytest.mark.parametrize("mode", Estimator.MODES)
    def test_updated_estimator_holds_no_reference_cycle(self, mode):
        # freed by `del` alone, with the cycle collector off
        est = Estimator(mode, [0.1, 0.1, 0.01])
        est.update([1.0, 0.5, -0.2], 0.7)
        ref = weakref.ref(est)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del est
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestDirectionalForgetting:
    def test_deadzone_leaves_state_bit_identical(self):
        est = DirectionalForgettingRls([0.1, 0.2, 0.3], r0=0.01, mu=0.9, epsilon=1e-3)
        est.update([1.0, 0.5, -0.2], 0.7)
        theta, P, R = est.theta.copy(), est.P.copy(), est.R.copy()
        rng = np.random.default_rng(44)
        for _ in range(50):
            phi = rng.standard_normal(3)
            phi *= 1e-3 / (np.linalg.norm(phi) + 1e-9) * rng.uniform(0.1, 1.0)
            est.update(phi, float(rng.standard_normal()))
            assert est.deadzone_active
        assert np.array_equal(est.theta, theta)
        assert np.array_equal(est.P, P)
        assert np.array_equal(est.R, R)

    def test_mu_one_matches_plain_rls(self):
        # with mu = 1 every rule's R' is R + phi phi^T, so all four modes agree to the bit
        rng = np.random.default_rng(45)
        rls, *others = [
            Estimator(mode, [0.0, 0.0, 0.0], mu=1.0, epsilon=0.0, r0=0.01, r_inf=0.01)
            for mode in ("noforget", "ef", "df", "er")
        ]
        for phi, d in random_stream(rng, 500):
            rls.update(phi, d)
            for est in others:
                est.update(phi, d)
                assert np.array_equal(est.theta, rls.theta), est.mode
                assert np.array_equal(est.P, rls.P), est.mode
                assert np.array_equal(est.R, rls.R), est.mode

    def test_constant_regressor_preserves_orthogonal_information(self):
        est = DirectionalForgettingRls([0.0, 0.0, 0.0], r0=0.01, mu=0.9)
        for _ in range(10_000):
            est.update([1.0, 0.0, 0.0], 0.5)
        assert symmetric_eigen_bounds(est.R)[0] >= 0.01 - 1e-12

    def test_duality_random_stream(self):
        rng = np.random.default_rng(46)
        est = DirectionalForgettingRls([0.0, 0.0, 0.0], r0=0.01, mu=0.85)
        for phi, d in random_stream(rng, 2000):
            est.update(phi, d)
            assert np.linalg.norm(est.P @ est.R - I3) < 1e-6

    def test_update_matches_rank_one_decomposition(self):
        # independent construction of the same step: split R into the part
        # annihilating phi (kept) and the rank-one remainder (discounted)
        rng = np.random.default_rng(47)
        mu = 0.8
        est = DirectionalForgettingRls([0.0, 0.0, 0.0], r0=0.01, mu=mu)
        for phi, d in random_stream(rng, 10):
            est.update(phi, d)
        Rb = est.R.copy()
        phi = np.array([0.7, -0.4, 1.1])
        est.update(phi, 0.3)
        R2 = np.outer(Rb @ phi, Rb @ phi) / float(phi @ Rb @ phi)
        R1 = Rb - R2
        assert np.max(np.abs(R1 @ phi)) < 1e-12
        assert np.linalg.matrix_rank(R2, tol=1e-10) == 1
        expected = R1 + mu * R2 + np.outer(phi, phi)
        assert est.R == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            DirectionalForgettingRls([0.0, 0.0, 0.0], epsilon=-1.0)


class TestExponentialResetting:
    def test_fixed_point_without_excitation(self):
        est = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.01, r_inf=0.01, mu=0.9)
        for _ in range(1000):
            est.update([0.0, 0.0, 0.0], 0.0)
            assert np.linalg.norm(est.R - 0.01 * I3) < 1e-12

    def test_geometric_pull_toward_floor(self):
        est = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.05, r_inf=0.01, mu=0.9)
        gap0 = np.linalg.norm(est.R - 0.01 * I3)
        for k in range(1, 60):
            est.update([0.0, 0.0, 0.0], 0.0)
            gap = np.linalg.norm(est.R - 0.01 * I3)
            assert gap == pytest.approx(0.9**k * gap0, rel=1e-10)

    def test_floor_zero_limit_is_exponential_forgetting(self):
        rng = np.random.default_rng(48)
        er = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.01, r_inf=1e-300, mu=0.9)
        R = 0.01 * I3
        for phi, d in random_stream(rng, 200):
            er.update(phi, d)
            R = 0.9 * R + np.outer(phi, phi)
            assert np.linalg.norm(er.R - R) < 1e-10 * np.linalg.norm(R)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_closed_form_inverse_at_extreme_scales(self, scale):
        # a determinant of R itself would under- or overflow at these scales
        rng = np.random.default_rng(58)
        est = ExponentialResettingRls([0.0, 0.0, 0.0], r0=scale, r_inf=scale, mu=0.9)
        for phi, d in random_stream(rng, 20, scale=np.sqrt(scale)):
            est.update(phi, d)
            assert np.linalg.norm(est.P @ est.R - I3) < 1e-12

    def test_requires_r0_dominating_floor(self):
        for r0, r_inf in [(0.01, 0.02), (1e-14, 1e-13)]:  # exact, at any scale
            with pytest.raises(ValueError, match="r0 must dominate r_inf"):
                ExponentialResettingRls([0.0, 0.0, 0.0], r0=r0, r_inf=r_inf)

    def test_duality_random_stream(self):
        rng = np.random.default_rng(49)
        est = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.01, r_inf=0.01, mu=0.9)
        for phi, d in random_stream(rng, 2000):
            est.update(phi, d)
            assert np.linalg.norm(est.P @ est.R - I3) < 1e-6


class TestWindupContrast:
    def test_fixed_direction_eigenvalue_separation(self):
        rng = np.random.default_rng(50)
        theta_true = np.array([0.2, 0.1, 0.05])
        ef = RlsEstimator([0.0, 0.0, 0.0], p0=100.0, mu=0.9)
        df = DirectionalForgettingRls([0.0, 0.0, 0.0], r0=0.01, mu=0.9)
        er = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.01, r_inf=0.01, mu=0.9)
        for _ in range(2000):
            phi = np.array([rng.uniform(0.5, 1.5), 0.0, 0.0])
            d = float(phi @ theta_true)
            for est in (ef, df, er):
                est.update(phi, d)
        assert symmetric_eigen_bounds(ef.R)[0] < 1e-6
        assert symmetric_eigen_bounds(df.R)[0] > 1e-4
        assert symmetric_eigen_bounds(er.R)[0] >= (1 - 0.9) * 0.01 - 1e-15
        # covariance side of the same story
        assert symmetric_eigen_bounds(ef.P)[1] > 1e6
        assert symmetric_eigen_bounds(df.P)[1] <= 100.0 + 1e-9

    def test_generic_direction_breaks_exponential_forgetting(self):
        # off-axis fixed directions drive cond(P) past float64 during windup;
        # the guarded update surfaces the breakdown instead of going quietly
        rng = np.random.default_rng(51)
        est = RlsEstimator([0.0, 0.0, 0.0], p0=100.0, mu=0.9)
        v = np.array([1.0, 0.3, -0.2])
        v /= np.linalg.norm(v)
        with pytest.raises(NumericalBreakdownError):
            for _ in range(5000):
                est.update(v * rng.uniform(0.5, 1.5), 0.1)

    def test_generic_direction_fine_for_df_and_er(self):
        rng = np.random.default_rng(52)
        v = np.array([1.0, 0.3, -0.2])
        v /= np.linalg.norm(v)
        df = DirectionalForgettingRls([0.0, 0.0, 0.0], r0=0.01, mu=0.9)
        er = ExponentialResettingRls([0.0, 0.0, 0.0], r0=0.01, r_inf=0.01, mu=0.9)
        for _ in range(5000):
            phi = v * rng.uniform(0.5, 1.5)
            df.update(phi, 0.1)
            er.update(phi, 0.1)
        assert symmetric_eigen_bounds(df.R)[0] > 1e-4
        assert symmetric_eigen_bounds(er.R)[0] > 1e-4


class TestConvergence:
    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    def test_noise_free_convergence_and_lyapunov_decrease(self, mode):
        rng = np.random.default_rng(53)
        theta_true = np.array([0.3, -0.2, 0.8])
        # small r0 for noforget/ef: without forgetting the initial-information
        # bias never decays, so it must start negligible
        r0 = 1e-6 if mode in ("noforget", "ef") else 0.01
        est = Estimator(mode, [0.0, 0.0, 0.0], mu=0.9, r0=r0)
        v_prev = np.inf
        for _ in range(500):
            phi = rng.standard_normal(3)
            est.update(phi, float(phi @ theta_true))
            err = est.theta - theta_true
            v = float(err @ est.R @ err)
            assert v <= v_prev * (1 + 1e-10) + 1e-30
            v_prev = v
        assert np.linalg.norm(est.theta - theta_true) < 1e-6


def reference_update(est, R, theta, phi, d, r_inf):
    """One step of PAPER.md's R-update rules in numpy, with P = inv(R) and er's
    floor r_inf*I.

    Returns the new (R, theta); theta moves along P phi by the residual.
    """
    mu = est.mu
    ehat = phi @ theta - d
    if est.mode == "df" and np.linalg.norm(phi) <= est.epsilon:
        return R, theta
    if est.mode in ("noforget", "ef"):
        R = mu * R + np.outer(phi, phi)
    elif est.mode == "df":
        Rphi = R @ phi
        R = R - (1.0 - mu) * np.outer(Rphi, Rphi) / (phi @ Rphi) + np.outer(phi, phi)
    else:
        R = mu * R + (1.0 - mu) * r_inf * I3 + np.outer(phi, phi)
    return R, theta - np.linalg.inv(R) @ phi * ehat


class TestAgainstReferenceRules:
    @pytest.mark.parametrize("mu", [0.75, 0.9, 1.0])
    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    def test_matches_numpy_reference(self, mode, mu):
        rng = np.random.default_rng(55)
        theta_true = np.array([0.3, -0.2, 0.8])
        r_inf = 0.01
        est = Estimator(mode, [0.1, 0.2, 0.3], mu=mu, r0=0.05, r_inf=r_inf)
        R, theta = est.R, est.theta
        for phi, noise in random_stream(rng, 2000):
            d = float(phi @ theta_true) + 0.1 * noise
            est.update(phi, d)
            R, theta = reference_update(est, R, theta, phi, d, r_inf)
            P = np.linalg.inv(R)
            for got, want in ((est.theta, theta), (est.P, P), (est.R, R)):
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestBreakdown:
    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    def test_overflow_raises_instead_of_nan(self, mode):
        # P(0) = 1e300 I: P phi overflows, so the update has no finite result
        est = Estimator(mode, [0.1, 0.1, 0.1], r0=1e-300, r_inf=1e-300)
        with pytest.raises(NumericalBreakdownError):
            est.update([1e160, 0.0, 0.0], 0.0)

    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    def test_breakdown_leaves_state_unchanged(self, mode):
        cases = [
            # phi_0^2 overflows R's diagonal, so the inverse rejects the new R
            ([0.1, 0.2, 0.3], [1e160, 0.0, 0.0], SingularInformationError),
            # R' and P' are fine, but the residual overflows and so does theta
            ([1e300, 0.0, 0.0], [1e10, 0.0, 0.0], NumericalBreakdownError),
        ]
        for theta0, phi, error in cases:
            est = Estimator(mode, theta0, r0=1.0, r_inf=1.0)
            est.update([0.5, -0.25, 1.0], 0.1)
            before = est.theta, est.P, est.R
            with pytest.raises(error):
                est.update(phi, 0.0)
            for old, new in zip(before, (est.theta, est.P, est.R)):
                assert np.array_equal(old, new)

    def test_df_denominator_underflow_leaves_state_bit_identical(self):
        # epsilon = 0 lets ||phi|| = 1e-160 past the deadzone; phi^T R phi = 1e-322
        est = Estimator("df", [0.1, 0.2, 0.3], epsilon=0.0, r0=0.01)
        before = [a.tobytes() for a in (est.theta, est.P, est.R)]
        with pytest.raises(DenominatorUnderflowError, match="phi\\^T R phi"):
            est.update([1e-160, 0.0, 0.0], 0.0)
        assert [a.tobytes() for a in (est.theta, est.P, est.R)] == before


class TestInverse:
    def test_positive_diagonal_and_determinant_but_indefinite(self):
        # unit diagonal, off-diagonals 1.5: eigenvalues 4, -0.5, -0.5 and det 1
        with pytest.raises(SingularInformationError, match="not positive definite"):
            adaptive._inverse((1.0, 1.5, 1.5, 1.0, 1.5, 1.0))


class TestLongHorizonDuality:
    @pytest.mark.parametrize("mode", ["df", "er"])
    def test_duality_holds_over_200k_steps(self, mode):
        rng = np.random.default_rng(56)
        n = 200_000
        phis = rng.standard_normal((n, 3)) * rng.uniform(0.5, 2.0, (n, 1))
        ds = rng.standard_normal(n)
        est = Estimator(mode, [0.0, 0.0, 0.0], mu=0.75, r0=0.01, r_inf=0.01)
        for phi, d in zip(phis.tolist(), ds.tolist()):
            est.update(phi, d)
            assert np.linalg.norm(est.P @ est.R - I3) < 1e-6

    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    def test_duality_on_closed_loop_replay(self, mode):
        # replay the regressor and estimator of method_comparison (seed 0) from
        # its trace; P R = I must hold along the closed-loop data in every mode
        base = ScenarioConfig.from_json("scenarios/method_comparison.json")
        cfg = replace(base, estimator=replace(base.estimator, mode=mode))
        trace = run_scenario(cfg, seed=0)
        _, _, gm, _, est = cfg.build(0)
        regressor = RegressorGenerator(gm.filter, cfg.ts)
        worst = 0.0
        for y, u in zip(trace["y"].tolist(), trace["u"].tolist()):
            est.update(*regressor.step(y, u))
            worst = max(worst, np.linalg.norm(est.P @ est.R - I3))
        assert np.array_equal(est.theta, [trace["kp"][-1], trace["ki"][-1], trace["kd"][-1]])
        assert worst <= 1e-8


class TestLongHorizonDirectionalForgetting:
    def test_df_information_floor_grows_over_1e5_steps(self):
        """On load_change without its load change, df's lambda_min(R) = 1/pmax
        is higher after 10^5 steps than after 10^3 (seed 0: 476.8, then 593.9).

        A measured property of the paper's df rule, not a guarantee: it forgets
        only along phi, so R gains information where the closed loop keeps
        exciting and its least-excited direction is never discounted.  Whether
        the df information matrix stays bounded is the open question of
        Bittanti, Bolzern & Campi (Automatica, 1990).
        """
        base = ScenarioConfig.from_json("scenarios/load_change.json")
        cfg = replace(base, duration=1000.0, evaluation_window=None,
                      estimator=replace(base.estimator, mode="df"),
                      plant=replace(base.plant, schedule=[]))
        pmax = run_scenario(cfg, seed=0)["pmax"]
        assert len(pmax) == 100_000
        assert 1.0 / pmax[-1] > 1.0 / pmax[999]


class TestEigenBounds:
    def test_scaled_identity(self):
        assert symmetric_eigen_bounds(100.0 * I3) == (100.0, 100.0)

    def test_diagonal(self):
        assert symmetric_eigen_bounds(np.diag([1.0, 2.0, 3.0])) == (1.0, 3.0)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            symmetric_eigen_bounds(np.ones(shape))

    def test_against_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 0.05 * I3
            lo, hi = symmetric_eigen_bounds(S)
            # independent oracle: roots of det(S - lambda I)
            c2 = -np.trace(S)
            c1 = 0.5 * (np.trace(S) ** 2 - np.trace(S @ S))
            c0 = -np.linalg.det(S)
            roots = np.roots([1.0, c2, c1, c0])
            roots = np.sort(roots.real)
            scale = max(1.0, roots[-1])
            assert abs(lo - roots[0]) / scale < 1e-9
            assert abs(hi - roots[-1]) / scale < 1e-9

    @pytest.mark.parametrize(
        "spectrum",
        [(1.0, 1.0, 3.0), (1.0, 3.0, 3.0), (1.0, 1.0 + 1e-6, 3.0), (1.0, 3.0, 3.0 + 1e-9),
         (2.0, 2.0, 2.0 + 1e-12), (1.0, 1.0 + 1e-13, 1.0 + 2e-13), (5.0, 5.0, 5.0),
         (1e-3, 1e-3, 1e3)],
    )
    def test_near_repeated_eigenvalues(self, spectrum):
        # near a double eigenvalue r = det(B)/2 sits at +-1, where acos turns a
        # rounding error eps in r into sqrt(eps) in the angle
        tol = 2.0 * np.sqrt(np.finfo(float).eps)
        rng = np.random.default_rng(57)
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            S = Q @ np.diag(spectrum) @ Q.T
            S = (S + S.T) / 2.0
            lo, hi = symmetric_eigen_bounds(S)
            w = np.linalg.eigvalsh(S)
            assert abs(lo - w[0]) <= tol * w[-1]
            assert abs(hi - w[-1]) <= tol * w[-1]


class TestEigenClamp:
    def test_matches_min_max_clamp_near_repeated_eigenvalues(self):
        # spectra with a double eigenvalue put r = det(B)/2 at +-1, and rounding
        # pushes it just outside; NaN entries give r = NaN
        def reference(a00, a01, a02, a11, a12, a22):
            p1 = a01 * a01 + a02 * a02 + a12 * a12
            if p1 == 0.0:
                return min(a00, a11, a22), max(a00, a11, a22)
            q = (a00 + a11 + a22) / 3.0
            d0, d1, d2 = a00 - q, a11 - q, a22 - q
            p = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * p1) / 6.0)
            b00, b11, b22, b01, b02, b12 = d0 / p, d1 / p, d2 / p, a01 / p, a02 / p, a12 / p
            r = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                 + b02 * (b01 * b12 - b11 * b02)) / 2.0
            phi = math.acos(min(1.0, max(-1.0, r))) / 3.0
            return (q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0),
                    q + 2.0 * p * math.cos(phi))

        rng = np.random.default_rng(58)
        cases = [(1.0, math.nan, 0.0, 1.0, 0.0, 1.0), (math.nan, 0.5, 0.0, 1.0, 0.0, 1.0)]
        for spectrum in [(1.0, 1.0, 3.0), (1.0, 3.0, 3.0), (2.0, 2.0, 2.0 + 1e-12)]:
            for _ in range(200):
                Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                (a00, a01, a02), (_, a11, a12), (_, _, a22) = (Q @ np.diag(spectrum) @ Q.T).tolist()
                cases.append((a00, a01, a02, a11, a12, a22))
        for m in cases:
            got, want = adaptive._eigen_bounds(*m), reference(*m)
            assert np.array_equal(got, want, equal_nan=True), (m, got, want)


class TestFactory:
    def test_modes(self):
        assert Estimator("noforget", [0.0, 0.0, 0.0], mu=0.5).mu == 1.0
        assert Estimator("ef", [0.0, 0.0, 0.0], mu=0.95).mu == 0.95
        assert Estimator("df", [0.0, 0.0, 0.0]).mode == "df"
        assert Estimator("er", [0.0, 0.0, 0.0]).mode == "er"
        for mode in ("kalman", "DF"):  # modes are spelled in lower case only
            with pytest.raises(ValueError, match="unknown estimator mode"):
                Estimator(mode, [0.0, 0.0, 0.0])

    def test_matrix_r0_rejected(self):
        # R(0) = r0 * I: the initial information is a scalar, never a matrix
        with pytest.raises(ValueError, match="r0 must be positive and finite"):
            Estimator("df", [0.0, 0.0, 0.0], r0=np.eye(3).tolist())

    @pytest.mark.parametrize(
        "r0",
        [[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
         [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]],
    )
    def test_non_positive_definite_r0_rejected(self, r0):
        with pytest.raises(ValueError, match="r0 must be positive and finite"):
            Estimator("df", [0.0, 0.0, 0.0], r0=r0)

    def test_state_reads_are_snapshots(self):
        est = Estimator("df", [0.1, 0.2, 0.3])
        for name in ("theta", "P", "R"):
            getattr(est, name)[0] = 99.0
        assert est.theta == pytest.approx([0.1, 0.2, 0.3])
        assert est.P == pytest.approx(100.0 * I3)
        assert est.R == pytest.approx(0.01 * I3)

    @pytest.mark.parametrize("mode", Estimator.MODES)
    def test_gains_are_the_floats_of_theta(self, mode):
        est = Estimator(mode, [0.1, 0.2, 0.3])
        rng = np.random.default_rng(59)
        for _ in range(5):
            est.update(rng.standard_normal(3), rng.standard_normal())
        assert type(est.gains) is tuple and len(est.gains) == 3
        assert all(type(g) is float for g in est.gains)
        assert est.gains == tuple(est.theta) != (0.1, 0.2, 0.3)
