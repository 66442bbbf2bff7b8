import math
import re

import numpy as np
import pytest

from fritpid.lti import RationalFilter
from fritpid.plant import NOISE_BLOCK, BoucWenParams, BoucWenPlant, LtiPlant

TS = 0.01


def run_plant(plant, u, seed=0, ts=TS):
    plant.reset(seed=seed)
    return np.array([plant.step(float(ui), k * ts) for k, ui in enumerate(u)])


def quasi_static_ramp(u_max=10.0, samples_per_leg=4000):
    """Slow 0 -> u_max -> 0 input ramp for loop-shape checks."""
    return np.concatenate([np.linspace(0.0, u_max, samples_per_leg),
                           np.linspace(u_max, 0.0, samples_per_leg)])


class TestLtiPlant:
    def test_identity_passthrough(self):
        p = LtiPlant(RationalFilter([1.0], [1.0]))
        u = np.linspace(-1, 1, 50)
        assert run_plant(p, u) == pytest.approx(u, abs=0)

    def test_noise_is_seed_deterministic(self):
        p = LtiPlant(RationalFilter([1.0], [1.0]), noise_std=0.2)
        u = np.ones(100)
        a = run_plant(p, u, seed=5)
        b = run_plant(p, u, seed=5)
        c = run_plant(p, u, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_saturation_clamps_input(self):
        p = LtiPlant(RationalFilter([1.0], [1.0]), saturation=(-1.0, 1.0))
        y = run_plant(p, np.array([0.5, 3.0, -4.0]))
        assert y == pytest.approx([0.5, 1.0, -1.0])

    @pytest.mark.parametrize("saturation", [
        (1.0,), (1.0, -1.0), (1.0, 1.0), (0.0, float("nan")), 5.0, "12", (False, True), ("0", "1"),
    ])
    def test_saturation_needs_two_increasing_bounds(self, saturation):
        with pytest.raises(ValueError):
            LtiPlant(RationalFilter([1.0], [1.0]), saturation=saturation)

    def test_gain_doubling_schedule(self):
        f = RationalFilter([0.0, 0.1], [1.0, -0.9])  # DC gain 1
        p = LtiPlant(f, schedule=[{"time": 50.0, "gain_scale": 2.0}])
        u = np.ones(12_000)
        y = run_plant(p, u)
        assert y[4999] == pytest.approx(1.0, abs=1e-3)
        assert y[-1] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("num, schedule, message", [
        ([], [], "num is all zeros"),
        ([0.0, 0.0], [], "num is all zeros"),
        ([0.0, 0.1], [{"time": 1.0, "gain_scale": 0.0}],
         "schedule entry {'time': 1.0, 'gain_scale': 0.0}: num is all zeros"),
        ([0.0, 0.1], [{"time": 1.0, "gain_scale": 0.5}, {"time": 2.0, "num": [0.0, -0.0]}],
         "schedule entry {'time': 2.0, 'num': [0.0, -0.0]}: num is all zeros"),
    ], ids=["empty", "zeros", "gain-scale-zero", "second-switch-num-zeros"])
    def test_a_stage_with_no_input_path_is_refused_and_named(self, num, schedule, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, so u never reaches y$"):
            LtiPlant(RationalFilter(num, [1.0, -0.9]), schedule=schedule)
        # the rule is exactly zero: a small gain is a real plant
        LtiPlant(RationalFilter([0.0, 1e-300], [1.0, -0.9]),
                 schedule=[{"time": 1.0, "gain_scale": 1e-6}])

    def test_time_must_not_decrease(self):
        p = LtiPlant(RationalFilter([1.0], [1.0]))
        p.reset(seed=0)
        p.step(0.0, 1.0)
        with pytest.raises(ValueError):
            p.step(0.0, 0.5)

    def test_schedule_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            LtiPlant(
                RationalFilter([1.0], [1.0]),
                schedule=[{"time": 2.0}, {"time": 2.0}],
            )

    def test_order_changing_switch_fails_in_the_constructor(self):
        # every stage is built with the plant, so a bad switch fails before it fires
        with pytest.raises(ValueError, match="order"):
            LtiPlant(
                RationalFilter([0.0, 0.0095], [1.0, -0.99]),
                schedule=[{"time": 40.0, "num": [0.0, 0.01, 0.0], "den": [1.0, -0.99, 0.1]}],
            )


class TestBoucWenPlant:
    def test_determinism_bit_identical(self):
        p = BoucWenPlant(BoucWenParams(), ts=TS, noise_std=0.1)
        u = 5.0 + 2.0 * np.sin(np.linspace(0, 6, 400))
        assert np.array_equal(run_plant(p, u, seed=9), run_plant(p, u, seed=9))

    def test_zero_input_stays_at_rest(self):
        p = BoucWenPlant(BoucWenParams(), ts=TS)
        y = run_plant(p, np.zeros(100))
        assert y == pytest.approx(np.zeros(100))

    def test_bounded_output_for_bounded_input(self):
        p = BoucWenPlant(BoucWenParams(), ts=TS)
        rng = np.random.default_rng(10)
        u = 5.0 + 5.0 * np.sin(0.03 * np.arange(30_000)) + rng.uniform(-3, 3, 30_000)
        y = run_plant(p, u)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 200.0

    def test_covers_calibrated_displacement_band(self):
        p = BoucWenPlant(BoucWenParams(), ts=TS)
        y = run_plant(p, quasi_static_ramp(u_max=10.0))
        assert y.max() >= 60.0
        assert y.min() <= 10.0

    def test_hysteresis_loop_has_area(self):
        p = BoucWenPlant(BoucWenParams(), ts=TS)
        u = quasi_static_ramp(u_max=10.0, samples_per_leg=2000)
        y = run_plant(p, u)
        n = len(u) // 2
        area = np.trapezoid(y[:n], u[:n]) - np.trapezoid(y[n:][::-1], u[:n])
        assert area > 1.0
        assert np.max(np.abs(y[:n] - y[n:][::-1])) > 1.0

    def test_asymmetry_from_bias(self):
        def thickness_asym(bias):
            p = BoucWenPlant(BoucWenParams(bias=bias), ts=TS)
            p.reset(seed=0)
            n_per = 4000
            t = np.arange(4 * n_per) * TS
            u = 5.0 + 5.0 * np.sin(2 * np.pi * t / (n_per * TS))
            y = np.array([p.step(float(ui), ti) for ui, ti in zip(u, t)])
            u, y = u[-n_per:], y[-n_per:]
            du = np.gradient(u)
            grid = np.linspace(u.min() + 0.3, u.max() - 0.3, 101)
            asc_i = du > 0
            dsc_i = du < 0
            asc = np.interp(grid, np.sort(u[asc_i]), y[asc_i][np.argsort(u[asc_i])])
            dsc = np.interp(grid, np.sort(u[dsc_i]), y[dsc_i][np.argsort(u[dsc_i])])
            g = np.abs(asc - dsc)
            return np.max(np.abs(g - g[::-1])) / np.max(g)

        # loop thickness is even-symmetric about the sweep center only
        # when the model is odd-symmetric
        assert thickness_asym(0.0) < 1e-6
        assert thickness_asym(0.2) > 0.05

    def test_load_change_moves_through_dynamics(self):
        p = BoucWenPlant(
            BoucWenParams(),
            ts=TS,
            schedule=[{"time": 5.0, "gain_scale": 0.7, "tau_scale": 1.5}],
        )
        y = run_plant(p, np.full(2000, 7.5))
        k_switch = 500
        before = y[k_switch - 1]
        # no output discontinuity at the switch
        assert abs(y[k_switch] - before) < 1.0
        # steady state reflects the reduced drive gain
        assert y[-1] < 0.75 * before

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BoucWenParams(n=0.5)
        with pytest.raises(ValueError):
            BoucWenParams(tau=0.0)
        with pytest.raises(ValueError):
            BoucWenParams(sigma=0.0)
        with pytest.raises(ValueError):
            BoucWenParams(beta=0.3, gamma=-0.3)  # beta <= |gamma|: unbounded loop
        with pytest.raises(ValueError):
            BoucWenParams(tau=float("nan"))
        for name in ("gain", "stiffness"):  # exactly zero: u would never reach y
            with pytest.raises(ValueError, match=f"^{name} must be nonzero, got 0.0$"):
                BoucWenParams(**{name: 0.0})
            BoucWenParams(**{name: 1e-6})

    def test_switches_match_per_step_exp_reference(self):
        """The cached exp(-ts/tau) and drive constants give the same bits as
        evaluating the Bouc-Wen law in full, with math.exp, on every step."""
        schedule = [
            {"time": 1.0, "tau_scale": 1.5},
            {"time": 2.0, "gain_scale": 0.7, "tau_scale": 0.6},
            {"time": 3.0, "tau": 0.25, "alpha": 0.5, "n": 2.0},
        ]
        p = BoucWenPlant(BoucWenParams(), ts=TS, schedule=schedule)
        u = (5.0 + 4.0 * np.sin(np.arange(400) * 0.05)).tolist()
        ours = run_plant(p, u)

        params, pending = BoucWenParams(), list(schedule)
        x = z = 0.0
        ref = []
        for k, uk in enumerate(u):
            while pending and k * TS >= pending[0]["time"]:
                entry = pending.pop(0)
                fields = {f: getattr(params, f) for f in BoucWenParams.__dataclass_fields__}
                fields.update({f: v for f, v in entry.items() if f in fields})
                fields["gain"] *= entry.get("gain_scale", 1.0)
                fields["tau"] *= entry.get("tau_scale", 1.0)
                params = BoucWenParams(**fields)
            a = math.exp(-TS / params.tau)
            x_new = a * x + (1.0 - a) * params.gain * uk
            dv = (x_new - x) / params.sigma
            dz = (dv - params.beta * abs(dv) * (abs(z) ** (params.n - 1.0) * z)
                  - params.gamma * dv * abs(z) ** params.n + params.bias * abs(dv))
            x, z = x_new, z + dz
            ref.append(params.stiffness * (params.alpha * x + (1.0 - params.alpha) * params.sigma * z))
        assert p.params.tau == 0.25
        assert np.array_equal(ours.view(np.uint64), np.array(ref).view(np.uint64))

    @pytest.mark.parametrize("ts", [0.0, -TS, math.nan, math.inf])
    def test_rejects_bad_ts(self, ts):
        with pytest.raises(ValueError, match="ts must be positive"):
            BoucWenPlant(BoucWenParams(), ts=ts)

    @pytest.mark.parametrize("make", [
        lambda schedule: BoucWenPlant(BoucWenParams(), ts=TS, schedule=schedule),
        lambda schedule: LtiPlant(RationalFilter([0.0, 0.1], [1.0, -0.9]), schedule=schedule),
    ], ids=["bouc_wen", "lti"])
    def test_reset_restores_initial_params(self, make):
        # the switch halves the gain; a reset must go back to the first stage,
        # not compound the switch, and the LTI delay line carries across it
        p = make([{"time": 0.5, "gain_scale": 0.5}])
        u = 5.0 + 2.0 * np.sin(np.linspace(0, 6, 200))
        first = run_plant(p, u)
        second = run_plant(p, u)
        assert np.array_equal(first.view(np.uint64), second.view(np.uint64))
        assert np.array_equal(first[:50], run_plant(make([]), u)[:50])
        assert abs(first[50] - first[49]) < 0.5  # no jump: the state carried on

    @pytest.mark.parametrize("make, entry, message", [
        (lambda s: LtiPlant(RationalFilter([0.0, 0.1], [1.0, -0.9]), schedule=s),
         {"time": 1, "gain_scale": [1, 2]}, "gain_scale must be a number, got [1, 2]"),
        (lambda s: LtiPlant(RationalFilter([0.0, 0.1], [1.0, -0.9]), schedule=s),
         {"time": 1, "num": 5}, "num must be a list of numbers, got 5"),
        (lambda s: LtiPlant(RationalFilter([0.0, 0.1], [1.0, -0.9]), schedule=s),
         {"time": 1, "num": ["a", 1]}, "num must be a list of numbers, got ['a', 1]"),
        (lambda s: LtiPlant(RationalFilter([0.0, 0.1], [1.0, -0.9]), schedule=s),
         {"time": 1, "num": [True, 0.1]}, "num must be a list of numbers, got [True, 0.1]"),
        (lambda s: BoucWenPlant(BoucWenParams(), ts=TS, schedule=s),
         {"time": 1, "gain": [1]}, "gain must be a number, got [1]"),
        (lambda s: BoucWenPlant(BoucWenParams(), ts=TS, schedule=s),
         {"time": True, "tau_scale": 2}, "time must be a number, got True"),
    ], ids=["lti-gain-scale-list", "lti-num-number", "lti-num-string-entry", "lti-num-bool-entry",
            "bouc-wen-gain-list", "bouc-wen-time-bool"])
    def test_schedule_value_of_the_wrong_type_names_entry_and_key(self, make, entry, message):
        with pytest.raises(ValueError, match=re.escape(f"schedule entry {entry!r}: {message}")):
            make([entry])

    def test_bad_switch_fails_in_the_constructor(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            BoucWenPlant(BoucWenParams(), ts=TS, schedule=[{"time": 50.0, "tau_scale": -1}])

    def test_constructor_leaves_the_initial_params(self):
        # building the later stages leaves the plant in the first one
        p = BoucWenPlant(BoucWenParams(), ts=TS, schedule=[
            {"time": 1.0, "gain_scale": 0.5}, {"time": 2.0, "tau_scale": 2.0}])
        assert p.params == BoucWenParams()
        assert p.step(1.0, 0.0) == BoucWenPlant(BoucWenParams(), ts=TS).step(1.0, 0.0)

    def test_schedule_absolute_override(self):
        p = BoucWenPlant(
            BoucWenParams(), ts=TS, schedule=[{"time": 1.0, "gain": 5.0}]
        )
        p.reset(seed=0)
        p.step(1.0, 0.0)
        assert p.params.gain == 10.0
        p.step(1.0, 1.0)
        assert p.params.gain == 5.0


class TestNoise:
    """Noise is drawn NOISE_BLOCK normals at a time: same values as one
    ``standard_normal()`` call per step."""

    @staticmethod
    def per_step_reference(seed, u, noise_std):
        rng = np.random.default_rng(seed)
        return [1.0 * uk + noise_std * rng.standard_normal() for uk in u]

    def test_block_draws_equal_scalar_draws(self):
        n = 40 * NOISE_BLOCK + 123  # across 40 block boundaries
        u = np.linspace(-1.0, 1.0, n).tolist()
        p = LtiPlant(RationalFilter([1.0], [1.0]), noise_std=0.3)
        ours = run_plant(p, u, seed=3)
        ref = self.per_step_reference(3, u, 0.3)
        assert np.array_equal(ours.view(np.uint64), np.array(ref).view(np.uint64))

    def test_a_fresh_plant_draws_the_seed_0_stream(self):
        # the generator is made at the first draw, not when the plant is built
        u = [0.5] * (NOISE_BLOCK + 3)
        p = LtiPlant(RationalFilter([1.0], [1.0]), noise_std=0.3)
        ours = np.array([p.step(uk, k * TS) for k, uk in enumerate(u)])
        ref = self.per_step_reference(0, u, 0.3)
        assert np.array_equal(ours.view(np.uint64), np.array(ref).view(np.uint64))

    def test_reset_mid_block_restarts_the_stream(self):
        u = [0.5] * (2 * NOISE_BLOCK + 7)
        p = LtiPlant(RationalFilter([1.0], [1.0]), noise_std=0.3)
        p.reset(seed=11)
        for k in range(NOISE_BLOCK + 17):  # stop inside the second block
            p.step(0.5, k * TS)
        for seed in (11, 12):
            again = run_plant(p, u, seed=seed)
            ref = self.per_step_reference(seed, u, 0.3)
            assert np.array_equal(again.view(np.uint64), np.array(ref).view(np.uint64))
