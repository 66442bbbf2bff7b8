import copy
import pickle
import re

import numpy as np
import pytest

from fritpid.adaptive import Estimator, RlsEstimator
from fritpid.controller import PidBasis
from fritpid.frit import ClosedLoopDataset
from fritpid.lti import RationalFilter, ReferenceModel, one_minus
from fritpid.plant import BoucWenParams, BoucWenPlant


def random_filter(rng, order=2):
    """Random stable-ish filter: den[0]=1, small tail coefficients."""
    num = rng.uniform(-1, 1, size=order + 1)
    den = np.concatenate([[1.0], rng.uniform(-0.4, 0.4, size=order)])
    return RationalFilter(num, den)


class TestConstruction:
    def test_empty_numerator_is_the_zero_filter(self):
        f = RationalFilter([], [1.0])
        assert (f.num, f.den, f.order) == ([0.0], [1.0], 0)
        assert f.filter([1.0, -2.0, 3.0]) == [0.0, 0.0, 0.0]

    def test_constant_filter_has_no_poles_or_zeros(self):
        f = RationalFilter([2.0, 0.0], [4.0])
        assert (f.poles(), f.zeros()) == ([], [])

    def test_needs_num_and_den(self):
        with pytest.raises(TypeError):
            RationalFilter([1.0])
        with pytest.raises(TypeError):  # no instance without checked coefficients
            RationalFilter()

    def test_rejects_zero_leading_den(self):
        with pytest.raises(ValueError):
            RationalFilter([1.0], [0.0, 1.0])

    @pytest.mark.parametrize("num, den", [
        ([np.nan], [1.0]), ([1.0], [1.0, np.inf]), ([0.0, -np.inf], [1.0, -0.5]),
    ])
    def test_rejects_non_finite_coefficients(self, num, den):
        with pytest.raises(ValueError, match="finite"):
            RationalFilter(num, den)

    @pytest.mark.parametrize("field", ["tau", "dc_gain"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_first_order_model_names_the_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReferenceModel.first_order(0.01, **{field: value})


NOT_POSITIVE = {"zero": 0.0, "negative": -1.0, "nan": np.nan, "inf": np.inf,
                "array": np.array([0.01, 0.02])}
# (id, the name the refusal gives, a build from the value, the bad values it meets)
POSITIVE_SETTINGS = [
    ("pid-basis-ts", "sampling time", PidBasis, NOT_POSITIVE),
    ("plant-ts", "ts", lambda v: BoucWenPlant(BoucWenParams(), ts=v), NOT_POSITIVE),
    ("dataset-ts", "ts", lambda v: ClosedLoopDataset(np.ones(5), np.ones(5), np.ones(5), ts=v),
     NOT_POSITIVE),
    ("model-ts", "reference model ts", ReferenceModel.first_order, NOT_POSITIVE),
    ("model-tau", "reference model tau", lambda v: ReferenceModel.first_order(0.01, tau=v),
     NOT_POSITIVE),
    ("r0", "r0", lambda v: Estimator("df", [0.0, 0.0, 0.0], r0=v), NOT_POSITIVE),
    ("r_inf", "r_inf", lambda v: Estimator("er", [0.0, 0.0, 0.0], r_inf=v), NOT_POSITIVE),
    ("p0", "p0", lambda v: RlsEstimator([0.0, 0.0, 0.0], p0=v), NOT_POSITIVE),
    # BoucWenParams refuses nan, inf and arrays in its finiteness loop first
    ("params-tau", "tau", lambda v: BoucWenParams(tau=v), ("zero", "negative")),
    ("params-sigma", "stroke scale sigma", lambda v: BoucWenParams(sigma=v), ("zero", "negative")),
]


@pytest.mark.parametrize("name, make, value", [
    pytest.param(name, make, NOT_POSITIVE[bad], id=f"{site}-{bad}")
    for site, name, make, bads in POSITIVE_SETTINGS for bad in bads
])
def test_a_setting_that_must_be_positive_is_refused_by_name(name, make, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be positive and finite, got "):
        make(value)


class TestStepResponses:
    def test_default_reference_model_first_samples(self):
        # y(k) = 0.99 y(k-1) + 0.0095 u(k-1) for a unit step
        gm = ReferenceModel.first_order(0.01, dc_gain=0.95)
        assert gm.filter.filter([1.0, 1.0, 1.0]) == pytest.approx(
            [0.0, 0.0095, 0.018905], abs=1e-15
        )

    def test_default_reference_model_steady_state(self):
        gm = ReferenceModel.first_order(0.01, dc_gain=0.95)
        y = gm.filter.filter([1.0] * 3000)
        # geometric series limit of the recursion: 0.0095 / (1 - 0.99)
        assert y[-1] == pytest.approx(0.95, abs=1e-8)

    def test_step_closed_form_along_the_way(self):
        gm = ReferenceModel.first_order(0.01, dc_gain=0.95)
        y = gm.filter.filter([1.0] * 200)
        for k in (1, 10, 100, 199):
            assert y[k] == pytest.approx(0.95 * (1 - 0.99**k), rel=1e-12)

    def test_zero_in_zero_out(self):
        f = RationalFilter([0.3, -0.1], [1.0, -0.7, 0.12])
        assert f.filter([0.0] * 50) == [0.0] * 50

    def test_identity(self):
        f = RationalFilter([1.0], [1.0])
        assert f.filter([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_differencer_on_constant(self):
        ts = 0.01
        d = RationalFilter([1 / ts, -1 / ts], [1.0])
        assert d.filter([5.0, 5.0, 5.0]) == [500.0, 0.0, 0.0]

    def test_causality(self):
        rng = np.random.default_rng(0)
        f = random_filter(rng)
        u = rng.standard_normal(40)
        v = u.copy()
        v[20:] += rng.standard_normal(20)
        y_u = f.filter(u)
        y_v = f.filter(v)
        assert y_u[:20] == pytest.approx(y_v[:20], abs=0)
        assert y_u[20:] != pytest.approx(y_v[20:])


class TestStatefulness:
    def test_filter_sequence_leaves_caller_state_alone(self):
        f = RationalFilter([0.0, 0.0095], [1.0, -0.99])
        f.step(1.0)
        f.step(1.0)
        state_before = list(f._w)
        f.filter([1.0] * 100)
        assert list(f._w) == state_before

    def test_filter_equals_repeated_steps_from_zero_state(self):
        rng = np.random.default_rng(4)
        f = random_filter(rng)
        u = rng.standard_normal(64)
        fresh = RationalFilter(f.num, f.den)
        stepped = [fresh.step(x) for x in u]
        assert f.filter(u) == pytest.approx(stepped, abs=0)

    def test_reset(self):
        f = RationalFilter([1.0, 0.5], [1.0, -0.5])
        y1 = [f.step(x) for x in (1.0, 2.0)]
        f.step(3.0)
        f.reset()
        assert [f.step(x) for x in (1.0, 2.0)] == y1


class TestAlgebra:
    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_filter(rng, order=rng.integers(1, 4))
            u = rng.standard_normal(100)
            v = rng.standard_normal(100)
            a, b = rng.uniform(-3, 3, size=2)
            lhs = np.asarray(f.filter(a * u + b * v))
            rhs = a * np.asarray(f.filter(u)) + b * np.asarray(f.filter(v))
            scale = np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_one_minus_identity_is_zero(self):
        z = one_minus(RationalFilter([1.0], [1.0]))
        assert z.filter([1.0, -2.0, 3.0]) == [0.0, 0.0, 0.0]

    def test_one_minus_zero_is_identity(self):
        f = one_minus(RationalFilter([0.0], [1.0]))
        assert f.filter([1.0, -2.0, 3.0]) == [1.0, -2.0, 3.0]

    def test_one_minus_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_filter(rng)
            u = rng.standard_normal(100)
            direct = np.asarray(one_minus(f).filter(u))
            indirect = u - np.asarray(f.filter(u))
            assert np.max(np.abs(direct - indirect)) < 1e-10

    def test_one_minus_reference_model_step(self):
        gm = ReferenceModel.first_order(0.01, dc_gain=0.95)
        y = one_minus(gm.filter).filter([1.0] * 3000)
        assert y[-1] == pytest.approx(0.05, abs=1e-8)

    def test_inverse_round_trip(self):
        f = RationalFilter([2.0, -0.6], [1.0, -0.3])
        rng = np.random.default_rng(14)
        u = rng.standard_normal(50)
        back = f.inverse().filter(f.filter(u))
        assert np.max(np.abs(np.asarray(back) - u)) < 1e-10


class TestAgainstScipy:
    def test_matches_lfilter_on_random_filters(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(15)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            f = random_filter(rng, order=order)
            u = rng.standard_normal(200)
            ours = np.asarray(f.filter(u))
            ref = scipy_signal.lfilter(f.num, f.den, u)
            assert np.max(np.abs(ours - ref)) < 1e-10


class TestReferenceModel:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            ReferenceModel(RationalFilter([0.0, 1.0], [1.0, -1.01]))

    def test_rejects_marginal_integrator(self):
        with pytest.raises(ValueError):
            ReferenceModel(RationalFilter([0.01], [1.0, -1.0]))

    def test_zoh_has_unit_dc_gain(self):
        gm = ReferenceModel.first_order(0.01, tau=1.0, dc_gain=1.0, discretization="zoh")
        y = gm.filter.filter([1.0] * 4000)
        assert y[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_discretization(self):
        with pytest.raises(ValueError):
            ReferenceModel.first_order(0.01, discretization="tustin")

    @pytest.mark.parametrize("num, den, what", [
        ([0.0, 0.0], [1.0, -0.5], "Gm is 0"), ([], [1.0], "Gm is 0"),
        ([1.0], [1.0], "1 - Gm is 0"), ([2.0, -1.0], [2.0, -1.0], "1 - Gm is 0"),
    ])
    def test_rejects_a_model_with_nothing_to_fit(self, num, den, what):
        # Gm = 0 makes d = 0, and Gm = 1 makes phi = 0, on every step
        with pytest.raises(ValueError, match=f"reference model {re.escape(what)}"):
            ReferenceModel(RationalFilter(num, den))

    def test_first_order_names_a_zero_dc_gain(self):
        with pytest.raises(ValueError, match="dc_gain must be finite and nonzero, got 0.0"):
            ReferenceModel.first_order(0.01, dc_gain=0.0)
        ReferenceModel.first_order(0.01, dc_gain=1e-300)  # a small gain is a model


def reference_step(b, a, w, u):
    """The generic direct-form-II-transposed step, written out independently.

    b, a: coefficients already divided by den[0] and padded to one length;
    w: the delay line (len(b) - 1 entries), updated in place.
    """
    if not w:
        return b[0] * u
    y = b[0] * u + w[0]
    for i in range(len(w)):
        if i + 1 < len(w):
            w[i] = b[i + 1] * u + w[i + 1] - a[i + 1] * y
        else:
            w[i] = b[i + 1] * u - a[i + 1] * y
    return y


def reference_run(num, den, u, switches=None):
    """Reference outputs; `switches` maps a step index to a new numerator."""
    switches = switches or {}
    n = max(len(num), len(den))
    w = [0.0] * (n - 1)
    out = []
    for k, x in enumerate(u):
        num = switches.get(k, num)
        b = [c / den[0] for c in num] + [0.0] * (n - len(num))
        a = [c / den[0] for c in den] + [0.0] * (n - len(den))
        out.append(reference_step(b, a, w, x))
    return out


def bits(values):
    return np.array(values, dtype=float).view(np.uint64)


class TestOrderSpecializedStep:
    """Orders 0, 1 and 2 step by an unrolled form; the bits must not change."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_generic_difference_equation(self, order):
        rng = np.random.default_rng(60 + order)
        for _ in range(20):
            num = rng.uniform(-2.0, 2.0, size=order + 1)
            den = np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.4, 0.4, size=order)])
            if order:
                den[-1] = rng.choice([den[-1], 0.0])  # a_n = 0: the differencer's shape
            f = RationalFilter(num, den)
            assert f.order == order
            u = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-3, 4, 200),
                                [0.0, -0.0, 1e-300, 1e300, -1e300, 0.0]]).tolist()
            ref = reference_run([float(c) for c in num], [float(c) for c in den], u)
            assert np.array_equal(bits([f.step(x) for x in u]), bits(ref))

    def test_reset_keeps_the_specialized_step_exact(self):
        f = RationalFilter([0.3, -0.7], [1.5, -0.6])
        u = np.random.default_rng(64).standard_normal(50).tolist()
        ref = reference_run([0.3, -0.7], [1.5, -0.6], u)
        assert np.array_equal(bits([f.step(x) for x in u[:20]]), bits(ref[:20]))
        f.reset()
        assert np.array_equal(bits([f.step(x) for x in u]), bits(ref))

    @pytest.mark.parametrize("num, den", [
        ([2.0, 0.0], [4.0, 0.0]),  # trailing zeros trimmed: order 0
        (np.array([0.5, 0.25, 0.0]), np.array([1.0, -0.5, 0.0])),  # order 1
        ([0.5], [1.0, -0.5, 0.25]),  # order 2
    ])
    def test_order_is_read_after_trimming(self, num, den):
        u = np.random.default_rng(67).standard_normal(30).tolist()
        ref = reference_run(list(num), list(den), u)
        f = RationalFilter(num, den)
        assert np.array_equal(bits([f.step(x) for x in u]), bits(ref))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("num, den", [
        ([0.3], [1.5]),
        ([0.3, -0.7], [1.5, -0.6]),
        ([0.3, -0.7, 0.2], [1.5, -0.6, 0.1]),
    ], ids=["order0", "order1", "order2"])
    def test_deepcopy_and_pickle_carry_the_state(self, num, den, clone):
        f = RationalFilter(num, den)
        u = np.random.default_rng(66).standard_normal(40).tolist()
        ref = reference_run(num, den, u)
        head = [f.step(x) for x in u[:15]]
        g = clone(f)
        assert type(g) is type(f) is not RationalFilter
        tail = [g.step(x) for x in u[15:]]
        assert np.array_equal(bits(head + tail), bits(ref))
        assert np.array_equal(bits([f.step(x) for x in u[15:]]), bits(ref[15:]))

    @pytest.mark.parametrize("num, den", [
        ([0.8], [1.0]),
        ([0.0, 0.0095], [1.0, -0.99]),
        ([0.2, 0.1, 0.05], [1.0, -0.5, 0.06]),
    ], ids=["order0", "order1", "order2"])
    def test_lti_plant_gain_switch_mid_run(self, num, den):
        from fritpid.plant import LtiPlant

        ts, k_switch, scale = 0.01, 137, 1.7
        plant = LtiPlant(RationalFilter(num, den),
                         schedule=[{"time": k_switch * ts, "gain_scale": scale}])
        plant.reset(seed=0)
        u = np.random.default_rng(65).uniform(-1.0, 1.0, 400).tolist()
        ours = [plant.step(x, k * ts) for k, x in enumerate(u)]
        ref = reference_run(num, den, u, {k_switch: [c * scale for c in num]})
        assert np.array_equal(bits(ours), bits(ref))
