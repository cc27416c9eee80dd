import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsim.core import (
    PROB_TOL,
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SamplerSpace,
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
    quantum_reference_correlation,
    sample_trial,
    simulate_trials,
    validate_model,
)
from bellsim.errors import DegenerateConditioning, InvalidModel, NonFiniteSpace, UnknownSetting
from bellsim.scenarios import CANONICAL_ANGLES, lf_scenario, m3_demo_scenario, quantum_scenario

from helpers import brute_force_expectations, random_lhvm_model, sample_standard_error, mc_tolerance

SETTINGS = (1, 2)
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def constant_model(a_value=1, b_value=1):
    source = DiscreteDistribution.uniform([(0, 0)])
    inst = {s: DiscreteDistribution.point(0) for s in SETTINGS}
    resp_a = {s: ResponseTable({(0, 0): a_value}) for s in SETTINGS}
    resp_b = {s: ResponseTable({(0, 0): b_value}) for s in SETTINGS}
    variant = ModelVariant.M1 if 0 in (a_value, b_value) else ModelVariant.LHVM
    return ExperimentModel(variant, SETTINGS, SETTINGS, source=source, instruments_a=inst,
                           instruments_b=dict(inst), responses_a=resp_a, responses_b=resp_b)


def string_atom_model():
    """An m1 model with string atoms whose responses A[1] and B[2] each miss
    five entries; atoms are declared out of sorted order."""
    source = DiscreteDistribution.uniform([("w", "r"), ("u", "p"), ("v", "q")])
    inst = {s: DiscreteDistribution.uniform(["k", "i"]) for s in SETTINGS}
    resp_a = {1: ResponseTable({("w", "k"): 1}),
              2: ResponseTable({(l, i): 1 for l in "wuv" for i in "ki"})}
    resp_b = {1: ResponseTable({(l, i): 1 for l in "rpq" for i in "ki"}),
              2: ResponseTable({("p", "i"): 0})}
    return ExperimentModel(ModelVariant.M1, SETTINGS, SETTINGS, source=source, instruments_a=inst,
                           instruments_b=dict(inst), responses_a=resp_a, responses_b=resp_b)


def quantum_model():
    return quantum_scenario().model


def m3_model_without_pair_2_2():
    model = m3_demo_scenario().model
    joints = dict(model.instruments_joint)
    del joints[SettingPair(2, 2)]
    return dataclasses.replace(model, instruments_joint=joints)


def two_atom_demo_model():
    """Small three-outcome model used against the brute-force oracle."""
    source = DiscreteDistribution([(0, 0), (1, 1)], [Fraction(1, 3), Fraction(2, 3)])
    inst_a = {1: DiscreteDistribution((0, 1), [Fraction(1, 4), Fraction(3, 4)]),
              2: DiscreteDistribution.point(0)}
    inst_b = {1: DiscreteDistribution.point(0),
              2: DiscreteDistribution((0, 1), [Fraction(1, 2), Fraction(1, 2)])}
    resp_a = {
        1: ResponseTable({(0, 0): 1, (0, 1): 0, (1, 0): -1, (1, 1): 1}),
        2: ResponseTable({(0, 0): -1, (1, 0): 1}),
    }
    resp_b = {
        1: ResponseTable({(0, 0): 1, (1, 0): -1}),
        2: ResponseTable({(0, 0): 0, (0, 1): -1, (1, 0): 1, (1, 1): 1}),
    }
    return ExperimentModel(ModelVariant.M2, SETTINGS, SETTINGS, source=source,
                           instruments_a=inst_a, instruments_b=inst_b, responses_a=resp_a,
                           responses_b=resp_b)


class TestValidateModel:
    def test_well_formed_model_has_empty_report(self):
        assert validate_model(lf_scenario().model) == []

    def test_probabilities_summing_below_one_reported(self):
        bad = DiscreteDistribution([(0, 0), (1, 1)], [Fraction(1, 2), Fraction(2, 5)])
        model = constant_model()
        model = ExperimentModel(
            ModelVariant.M1, SETTINGS, SETTINGS, source=bad, instruments_a=model.instruments_a,
            instruments_b=model.instruments_b,
            responses_a={s: ResponseTable({(0, 0): 1, (1, 0): 1}) for s in SETTINGS},
            responses_b={s: ResponseTable({(0, 0): 1, (1, 0): 1}) for s in SETTINGS})
        report = validate_model(model)
        assert len(report) == 1
        assert "sum to" in report[0]

    def test_lhvm_with_zero_response_reported(self):
        model = constant_model()
        responses_a = dict(model.responses_a)
        responses_a[1] = ResponseTable({(0, 0): 0})
        model = ExperimentModel(ModelVariant.LHVM, SETTINGS, SETTINGS, source=model.source,
                                instruments_a=model.instruments_a,
                                instruments_b=model.instruments_b, responses_a=responses_a,
                                responses_b=model.responses_b)
        report = validate_model(model)
        assert any("never output 0" in item for item in report)

    def test_missing_instrument_reported(self):
        model = constant_model()
        insts = {1: DiscreteDistribution.point(0)}
        broken = ExperimentModel(ModelVariant.LHVM, SETTINGS, SETTINGS, source=model.source,
                                 instruments_a=insts, instruments_b=model.instruments_b,
                                 responses_a=model.responses_a, responses_b=model.responses_b)
        assert any("no distribution for setting" in item for item in validate_model(broken))

    def test_incomplete_response_table_reported(self):
        model = constant_model()
        responses_a = dict(model.responses_a)
        responses_a[1] = ResponseTable({(99, 0): 1})
        broken = ExperimentModel(ModelVariant.LHVM, SETTINGS, SETTINGS, source=model.source,
                                 instruments_a=model.instruments_a,
                                 instruments_b=model.instruments_b, responses_a=responses_a,
                                 responses_b=model.responses_b)
        assert any("no entry for" in item for item in validate_model(broken))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_quantum_angle_reported(self, angle):
        model = ExperimentModel(ModelVariant.QUANTUM, SETTINGS, SETTINGS,
                                angles_a={1: 0.0, 2: 0.5}, angles_b={1: 0.25, 2: angle})
        assert validate_model(model) == ["angles B: angle for 2 is not finite"]
        with pytest.raises(InvalidModel, match="angle for 2 is not finite"):
            enumerate_raw(model, SettingPair(1, 2))
        with pytest.raises(InvalidModel, match="angle for 2 is not finite"):
            sample_trial(model, SettingPair(1, 2), np.random.Generator(np.random.PCG64(0)))

    def test_overflowing_angle_difference_reported(self):
        model = ExperimentModel(ModelVariant.QUANTUM, SETTINGS, SETTINGS,
                                angles_a={1: 1e308, 2: 0.0}, angles_b={1: -1e308, 2: 0.0})
        want = [f"angles: difference for pair {pair} is not finite"
                for pair in ((1, 1), (1, 2), (2, 1))]
        assert validate_model(model) == want
        with pytest.raises(InvalidModel, match=r"pair \(1, 1\) is not finite"):
            enumerate_raw(model, SettingPair(1, 1))
        with pytest.raises(InvalidModel, match=r"pair \(1, 1\) is not finite"):
            sample_trial(model, SettingPair(1, 1), np.random.Generator(np.random.PCG64(0)))
        huge = ExperimentModel(ModelVariant.QUANTUM, SETTINGS, SETTINGS,
                               angles_a={1: 10**308, 2: 0.0}, angles_b={1: -10**308, 2: 0.0})
        assert validate_model(huge) == want

    @pytest.mark.parametrize("kind, want", [
        ("source atom", "source: atoms must be hashable"),
        ("instrument atom", "instruments A[2]: atoms must be hashable"),
        ("setting label", "settings_a: setting labels must be hashable"),
    ])
    def test_unhashable_value_reported(self, kind, want):
        model = constant_model()
        source, inst_a, settings_a = model.source, model.instruments_a, SETTINGS
        if kind == "source atom":
            source = DiscreteDistribution([([0], 0)], [1])
        elif kind == "instrument atom":
            inst_a = {1: inst_a[1], 2: DiscreteDistribution([[0]], [1])}
        else:
            settings_a = ([1], 2)
        broken = ExperimentModel(ModelVariant.M1, settings_a, SETTINGS, source=source,
                                 instruments_a=inst_a, instruments_b=model.instruments_b,
                                 responses_a=model.responses_a, responses_b=model.responses_b)
        assert validate_model(broken) == [want]
        with pytest.raises(InvalidModel) as excinfo:
            enumerate_raw(broken, SettingPair(2, 1))
        assert want in str(excinfo.value)
        quantum = ExperimentModel(ModelVariant.QUANTUM, settings_a, SETTINGS,
                                  angles_a={1: 0.0, 2: 0.5}, angles_b={1: 0.25, 2: 0.5})
        assert validate_model(quantum) == ([want] if kind == "setting label" else [])

    @pytest.mark.parametrize("base, changes, want", [
        (constant_model, {"source": None}, "source: missing"),
        (constant_model, {"source": "uniform"}, "source: not a distribution or sampler"),
        (constant_model, {"source": DiscreteDistribution.uniform([0, 1])},
         "source: atoms must be 2-tuples"),
        (constant_model, {"variant": "m9"}, "unknown variant 'm9'"),
        (constant_model, {"settings_b": (2, 2)},
         "settings_b: need at least two distinct setting labels"),
        (quantum_model, {"angles_a": None}, "angles A: missing"),
        (quantum_model, {"angles_b": {1: 0.0, 2: "0.5"}},
         "angles B: angle for 2 is not a number"),
        (m3_model_without_pair_2_2, {}, "joint instruments: no distribution for pair (2, 2)"),
        (constant_model, {"responses_a": {1: 1, 2: ResponseTable({(0, 0): 1})}},
         "responses A[1]: not a table or callable"),
        (constant_model, {"instruments_a": {s: DiscreteDistribution.point(0) for s in (1, 2, 7)}},
         "instruments A: entry for undeclared setting 7"),
        (constant_model, {"responses_b": {s: ResponseTable({(0, 0): 1}) for s in (1, 2, "x")}},
         "responses B: entry for undeclared setting 'x'"),
        (quantum_model, {"angles_a": {1: 0.0, 2: 0.5, 3: 0.0}},
         "angles A: entry for undeclared setting 3"),
        (lambda: m3_demo_scenario().model, {"instruments_joint": {
            **m3_demo_scenario().model.instruments_joint,
            SettingPair(1, 3): DiscreteDistribution.point((0, 0))}},
         "joint instruments: entry for undeclared pair (1, 3)"),
        (constant_model, {"angles_a": {1: 0.0, 2: 0.5}}, "angles_a: a lhvm model does not read it"),
        (lambda: m3_demo_scenario().model, {"instruments_a": constant_model().instruments_a},
         "instruments_a: a m3 model does not read it"),
        (quantum_model, {"source": DiscreteDistribution.uniform([(0, 0)])},
         "source: a quantum model does not read it"),
        (constant_model, {"settings_a": [1, 2]}, "settings_a: not a tuple"),
    ], ids=["no-source", "source-type", "source-atoms", "variant", "settings", "no-angles",
            "angle-type", "m3-pair", "response-type", "undeclared-instruments",
            "undeclared-responses", "undeclared-angles", "undeclared-joint", "foreign-lhvm",
            "foreign-m3", "foreign-quantum", "list-settings"])
    def test_violation_messages(self, base, changes, want):
        broken = dataclasses.replace(base(), **changes)
        assert validate_model(broken) == [want]
        with pytest.raises(InvalidModel) as excinfo:
            enumerate_raw(broken, SettingPair(1, 1))
        assert excinfo.value.violations == [want]

    def test_missing_entries_listed_in_declaration_order(self):
        got = [json.loads(subprocess.run(
            [sys.executable, "-c", "import json, test_core; from bellsim.core import "
             "validate_model; print(json.dumps(validate_model(test_core.string_atom_model())))"],
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))},
            capture_output=True, text=True, check=True).stdout) for seed in ("0", "1", "2")]
        want = [f"responses A[1]: no entry for {entry}" for entry in (
            "('w', 'i')", "('u', 'k')", "('u', 'i')", "('v', 'k')", "('v', 'i')")]
        want += [f"responses B[2]: no entry for {entry}" for entry in (
            "('r', 'k')", "('r', 'i')", "('p', 'k')", "('q', 'k')", "('q', 'i')")]
        assert got == [want] * 3
        assert validate_model(string_atom_model()) == want

    def test_m3_missing_entry_listed_once(self):
        source = DiscreteDistribution.point((0, 0))
        joints = {(1, 1): DiscreteDistribution.uniform([(0, 0), (1, 1)]),
                  (1, 2): DiscreteDistribution.uniform([(1, 0), (2, 1)]),
                  (2, 1): DiscreteDistribution.point((0, 0)),
                  (2, 2): DiscreteDistribution.point((0, 0))}
        covering = ResponseTable({(0, i): 1 for i in range(3)})
        model = ExperimentModel(ModelVariant.M3, SETTINGS, SETTINGS, source=source,
                                instruments_joint=joints,
                                responses_a={1: ResponseTable({(0, 0): 1}), 2: covering},
                                responses_b={1: covering, 2: covering})
        assert validate_model(model) == ["responses A[1]: no entry for (0, 1)",
                                         "responses A[1]: no entry for (0, 2)"]

    def test_invalid_outcomes_of_mixed_types_reported(self):
        model = constant_model()
        responses_a = {1: ResponseTable({(0, 0): "x", (1, 0): 5, (2, 0): "x"}),
                       2: ResponseTable({(0, 0): 5, (1, 0): 2, (2, 0): 5})}
        broken = ExperimentModel(ModelVariant.LHVM, SETTINGS, SETTINGS, source=model.source,
                                 instruments_a=model.instruments_a,
                                 instruments_b=model.instruments_b, responses_a=responses_a,
                                 responses_b=model.responses_b)
        assert validate_model(broken) == [
            "responses A[1]: outcomes outside -1/0/+1: ['x', 5]",
            "responses A[2]: outcomes outside -1/0/+1: [2, 5]",
        ]


    @pytest.mark.parametrize("outcome", [1.0, Fraction(1), np.float64(-1.0)])
    def test_non_integer_outcome_reported(self, outcome):
        model = constant_model(b_value=outcome)
        want = f"responses B[1]: outcomes outside -1/0/+1: {[outcome]}"
        assert validate_model(model)[0] == want
        with pytest.raises(InvalidModel) as excinfo:
            enumerate_raw(model, SettingPair(1, 1))
        assert want in excinfo.value.violations
        with pytest.raises(InvalidModel) as excinfo:
            simulate_trials(model, SettingPair(1, 1), 10, master_seed=1)
        assert want in excinfo.value.violations

    @pytest.mark.parametrize("outcome", [np.int8(-1), np.int64(1), True])
    def test_numpy_integer_and_bool_outcomes_accepted(self, outcome):
        model = constant_model(b_value=outcome)
        assert validate_model(model) == []
        assert enumerate_raw(model, SettingPair(1, 1)).e_ab == int(outcome)
        a, b = simulate_trials(model, SettingPair(1, 1), 10, master_seed=1)
        assert b.tolist() == [int(outcome)] * 10

    @pytest.mark.parametrize("station", ["A", "B"])
    @pytest.mark.parametrize("outcome", [-2, 2, 0.5, 1.0, 0])
    def test_callable_outcome_outside_range_reported(self, station, outcome):
        # A plain callable can only be checked once it is called: when a
        # finite model tabulates it, for enumeration or for its samplers, or
        # on each draw of a sampler model.
        # An lhvm model's range is -1/+1 alone, so its outcome 0 is outside.
        def respond(lam, i):
            return outcome if lam == 1 else -1

        variant = ModelVariant.LHVM if outcome == 0 else ModelVariant.M1
        source = DiscreteDistribution.uniform([(0, 0), (1, 1)])
        inst = {s: DiscreteDistribution.point(0) for s in SETTINGS}
        valid = {s: (lambda lam, i: 1) for s in SETTINGS}
        broken = {1: respond, 2: valid[2]}
        resp_a, resp_b = (broken, valid) if station == "A" else (valid, broken)
        finite = ExperimentModel(variant, SETTINGS, SETTINGS, source=source, instruments_a=inst,
                                 instruments_b=dict(inst), responses_a=resp_a, responses_b=resp_b)
        sampled = ExperimentModel(
            variant, SETTINGS, SETTINGS,
            source=SamplerSpace(lambda g, n: [(int(v), int(v)) for v in g.integers(0, 2, n)]),
            instruments_a=inst, instruments_b=dict(inst), responses_a=resp_a, responses_b=resp_b)
        if outcome == 0:
            want = f"responses {station}[1]: lhvm responses must never output 0"
        else:
            want = f"responses {station}[1]: outcomes outside -1/0/+1: {[outcome]}"
        assert validate_model(finite) == validate_model(sampled) == []
        calls = [lambda: enumerate_raw(finite, SettingPair(2, 2)),
                 lambda: enumerate_postselected(finite, SettingPair(1, 1))]
        for model in (finite, sampled):
            calls.append(lambda model=model: simulate_trials(model, SettingPair(1, 1), 10, 1))
            # One trial draws one source atom; half of them reach the bad outcome.
            generator = np.random.default_rng(2)
            calls.append(lambda model=model: [sample_trial(model, SettingPair(1, 1), generator)
                                              for _ in range(64)])
        for call in calls * 2:
            with pytest.raises(InvalidModel) as excinfo:
                call()
            assert excinfo.value.violations == [want]
        # The sampler checks only its own pair's responses.
        a, b = simulate_trials(sampled, SettingPair(2, 2), 10, 1)
        assert (a == 1).all() and (b == 1).all()


class TestEnumerate:
    def test_lf_minus_minus_raw_is_minus_one(self):
        model = lf_scenario().model
        result = enumerate_raw(model, SettingPair(-1, -1))
        assert result.e_ab == -1
        assert result.c_xy == 1

    def test_constant_model_raw(self):
        result = enumerate_raw(constant_model(1, 1), SettingPair(1, 1))
        assert result.e_ab == 1
        assert result.c_xy == 1

    def test_demo_model_matches_brute_force(self):
        model = two_atom_demo_model()
        for sp in model.pairs():
            oracle = brute_force_expectations(model, sp)
            raw = enumerate_raw(model, sp)
            post = enumerate_postselected(model, sp)
            assert float(raw.e_ab) == pytest.approx(oracle["raw"][0], abs=1e-12)
            assert float(raw.e_a) == pytest.approx(oracle["raw"][1], abs=1e-12)
            assert float(raw.e_b) == pytest.approx(oracle["raw"][2], abs=1e-12)
            assert float(raw.c_xy) == pytest.approx(oracle["c_xy"], abs=1e-12)
            assert float(post.e_ab) == pytest.approx(oracle["postselected"][0], abs=1e-12)
            assert float(post.e_a) == pytest.approx(oracle["postselected"][1], abs=1e-12)
            assert float(post.e_b) == pytest.approx(oracle["postselected"][2], abs=1e-12)

    def test_lf_postselected_values(self):
        model = lf_scenario().model
        assert enumerate_postselected(model, SettingPair(1, 1)).e_ab == 1
        assert enumerate_postselected(model, SettingPair(1, -1)).e_ab == 0

    def test_all_zero_station_degenerate(self):
        model = constant_model(a_value=1, b_value=0)
        with pytest.raises(DegenerateConditioning):
            enumerate_postselected(model, SettingPair(1, 1))

    def test_postselected_equals_raw_without_zeros(self):
        gen = np.random.Generator(np.random.PCG64(3))
        for _ in range(5):
            model = random_lhvm_model(gen)
            for sp in model.pairs():
                raw = enumerate_raw(model, sp)
                post = enumerate_postselected(model, sp)
                assert raw == post
                assert raw.c_xy == 1

    def test_unknown_setting_rejected(self):
        with pytest.raises(UnknownSetting):
            enumerate_raw(constant_model(), SettingPair(9, 1))

    def test_expectations_bounded(self):
        gen = np.random.Generator(np.random.PCG64(10))
        for _ in range(10):
            model = random_lhvm_model(gen)
            for sp in model.pairs():
                r = enumerate_raw(model, sp)
                assert -1 <= r.e_ab <= 1
                assert -1 <= r.e_a <= 1
                assert -1 <= r.e_b <= 1
                assert 0 <= r.c_xy <= 1

    def test_sampler_space_refused(self):
        sampler = SamplerSpace(lambda g, n: [(0.0, 0.0)] * n, "degenerate pairs")
        inst = {s: DiscreteDistribution.point(0) for s in SETTINGS}
        resp = {s: (lambda l, i: 1) for s in SETTINGS}
        model = ExperimentModel(ModelVariant.M1, SETTINGS, SETTINGS, source=sampler,
                                instruments_a=inst, instruments_b=dict(inst), responses_a=resp,
                                responses_b=dict(resp))
        with pytest.raises(NonFiniteSpace):
            enumerate_raw(model, SettingPair(1, 1))
        a, b = simulate_trials(model, SettingPair(1, 1), 64, 5)
        assert (a == 1).all() and (b == 1).all()


class TestQuantumReference:
    def test_zero_relative_angle(self):
        assert quantum_reference_correlation(0.3, 0.3) == pytest.approx(1.0)

    def test_eighth_turn_vanishes(self):
        assert quantum_reference_correlation(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_canonical_angles_reach_tsirelson(self):
        a1, a2, b1, b2 = CANONICAL_ANGLES
        es = [quantum_reference_correlation(ta, tb)
              for ta in (a1, a2) for tb in (b1, b2)]
        best = max(abs(sum(s * e for s, e in zip(signs, es)))
                   for signs in product((1, -1), repeat=4) if signs.count(-1) % 2 == 1)
        assert best == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_enumerate_on_quantum_model_is_analytic(self):
        model = quantum_scenario().model
        r = enumerate_raw(model, SettingPair(1, 1))
        assert r.e_ab == pytest.approx(math.cos(2 * (0.0 - math.pi / 8)), abs=1e-15)
        assert enumerate_postselected(model, SettingPair(1, 1)) == r


class TestSampling:
    def test_constant_model_trial(self):
        model = constant_model(1, -1)
        gen = np.random.Generator(np.random.PCG64(0))
        assert sample_trial(model, SettingPair(1, 1), gen) == (1, -1)

    def test_lf_outcomes_follow_power_law(self):
        model = lf_scenario().model
        gen = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            a, b = sample_trial(model, SettingPair(1, 1), gen)
            assert (a, b) == (1, 1)
            a, b = sample_trial(model, SettingPair(-1, -1), gen)
            assert b == -a

    def test_equal_seeds_bit_identical(self):
        model = lf_scenario().model
        pair = SettingPair(-1, 1)
        first = sample_trial(model, pair, np.random.Generator(np.random.PCG64(21)))
        second = sample_trial(model, pair, np.random.Generator(np.random.PCG64(21)))
        assert first == second

    def test_simulate_trials_reproducible_and_prefix_stable(self):
        model = lf_scenario().model
        pair = SettingPair(-1, -1)
        a1, b1 = simulate_trials(model, pair, 10_000, 99)
        a2, b2 = simulate_trials(model, pair, 10_000, 99)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3, b3 = simulate_trials(model, pair, 300, 99)
        assert np.array_equal(a3, a1[:300]) and np.array_equal(b3, b1[:300])
        a4, b4 = simulate_trials(model, pair, 10_000, 99, workers=4)
        assert np.array_equal(a4, a1) and np.array_equal(b4, b1)

    def test_monte_carlo_matches_enumeration(self):
        gen = np.random.Generator(np.random.PCG64(17))
        model = random_lhvm_model(gen)
        for sp in model.pairs():
            exact = enumerate_raw(model, sp)
            a, b = simulate_trials(model, sp, 100_000, 1234)
            prod = (a * b).astype(float)
            assert abs(prod.mean() - float(exact.e_ab)) <= mc_tolerance(sample_standard_error(prod))
            assert abs(a.mean() - float(exact.e_a)) <= mc_tolerance(sample_standard_error(a))
            assert abs(b.mean() - float(exact.e_b)) <= mc_tolerance(sample_standard_error(b))

    def test_quantum_sampling_matches_cosine_law(self):
        model = quantum_scenario().model
        for sp in model.pairs():
            expected = enumerate_raw(model, sp).e_ab
            a, b = simulate_trials(model, sp, 100_000, 31)
            prod = (a * b).astype(float)
            assert abs(prod.mean() - expected) <= mc_tolerance(sample_standard_error(prod))
            assert set(np.unique(a)) <= {-1, 1}

    def test_three_outcome_sampling_matches_enumeration(self):
        model = two_atom_demo_model()
        for sp in model.pairs():
            exact = enumerate_raw(model, sp)
            a, b = simulate_trials(model, sp, 100_000, 8)
            nonzero = (a != 0) & (b != 0)
            c_hat = nonzero.astype(float)
            assert abs(c_hat.mean() - float(exact.c_xy)) <= mc_tolerance(sample_standard_error(c_hat))


class TestDiscreteDistribution:
    def test_uniform_is_exact(self):
        dist = DiscreteDistribution.uniform(range(6))
        assert dist.total == 1
        assert dist.probs[0] == Fraction(1, 6)

    def test_float_probs_round_trip_exactly(self):
        dist = DiscreteDistribution((0, 1), (0.25, 0.75))
        assert dist.probs == (Fraction(1, 4), Fraction(3, 4))

    def test_violations_reported_not_raised(self):
        dist = DiscreteDistribution((0, 1), (0.5, 0.4))
        assert any("sum to" in item for item in dist.violations())
        dup = DiscreteDistribution((0, 0), (0.5, 0.5))
        assert any("duplicate" in item for item in dup.violations())

    @given(weights=st.lists(st.one_of(st.integers(-3, 6),
                                      st.fractions(-2, 2, max_denominator=60),
                                      st.floats(-2, 2)), min_size=1, max_size=6),
           normalise=st.booleans(), duplicate=st.booleans())
    def test_total_and_violations_match_fraction_sums(self, weights, normalise, duplicate):
        probs = [Fraction(w) for w in weights]
        total = sum(probs, Fraction(0))
        if normalise and total:
            weights = probs = [p / total for p in probs]
            total = sum(probs, Fraction(0))
        atoms = list(range(len(weights)))
        if duplicate:
            atoms[-1] = atoms[0]
        dist = DiscreteDistribution(atoms, weights)
        assert dist.total == total
        want = []
        if any(p < 0 for p in probs):
            want.append("d: negative probability")
        if abs(float(total) - 1.0) > PROB_TOL:
            want.append(f"d: probabilities sum to {float(total)!r}, not 1")
        if len(set(atoms)) != len(atoms):
            want.append("d: duplicate atoms")
        assert dist.violations("d") == want

    @pytest.mark.parametrize("text", ["1_0/20", "1/2"])
    def test_string_probability_is_not_a_number(self, text):
        with pytest.raises(TypeError, match=f"^cannot interpret {text!r} as a probability$"):
            DiscreteDistribution([1, 2], [text, "1/2"])

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_probability_is_not_a_number(self, flag):
        with pytest.raises(TypeError, match=f"^cannot interpret {flag!r} as a probability$"):
            DiscreteDistribution([1, 2], [flag, not flag])

    def test_integer_weights_are_computed_once(self, monkeypatch):
        dist = DiscreteDistribution((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), 0.5))
        weights = dist._integer_weights
        assert weights == ((1, 2, 3), 6)
        monkeypatch.setattr(math, "lcm", None)
        assert dist.total == 1 and dist.violations() == []
        assert dist._integer_weights is weights

    def test_structural_errors_raise(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((), ())
