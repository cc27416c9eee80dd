import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
    validate_model,
)
from bellsim.coupling import joint_moments, lf_coupling
from bellsim.errors import BellsimError, ConstructionInvalid, InvalidModel
from bellsim.estimators import POSTSELECTED, RAW, correlation_set_from_exact, no_signalling
from bellsim.scenarios import (
    CANONICAL_ANGLES,
    Scenario,
    build_scenario,
    lf_scenario,
    lhvm_socks_scenario,
    m2_demo_scenario,
    m3_demo_scenario,
    quantum_scenario,
    scenario_names,
)

from helpers import (
    brute_force_expectations,
    count_validations,
    fixed_pair_outcomes,
    mc_tolerance,
    sample_standard_error,
)


def max_abs_deltas(scenario):
    """The no-signalling report's max |delta| of the raw and post-selected tables."""
    return tuple(
        no_signalling(correlation_set_from_exact(
            table, scenario.model.settings_a, scenario.model.settings_b, conditioning)
        ).max_abs_delta
        for conditioning, table in ((RAW, scenario.expected_raw),
                                    (POSTSELECTED, scenario.expected_postselected)))


def exact_maxima(scenario):
    """The raw and post-selected CHSH maxima, each checked to be a Fraction."""
    maxima = (scenario.s_max_abs_raw, scenario.s_max_abs_postselected)
    assert all(type(s) is Fraction for s in maxima), maxima
    return maxima


def test_a_scenario_declares_its_model_and_tables_only():
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "description", "model", "expected_raw", "expected_postselected"]


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_name_is_its_model_name(name):
    scenario = build_scenario(name)
    assert scenario.name == name == scenario.model.name


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_verifies_and_validates(name):
    scenario = build_scenario(name)
    assert validate_model(scenario.model) == []
    scenario.verify()


@pytest.mark.parametrize("name", scenario_names())
def test_verify_validates_a_fresh_model_once(name, monkeypatch):
    scenario = build_scenario(name)
    fresh = dataclasses.replace(scenario, model=dataclasses.replace(scenario.model))
    seen = count_validations(monkeypatch)
    fresh.verify()
    fresh.verify()
    assert len(seen) == 1 and seen[0] is fresh.model


@pytest.mark.parametrize("name", scenario_names())
def test_monte_carlo_agrees_with_expected_tables(name):
    scenario = build_scenario(name)
    for sp in scenario.model.pairs():
        a, b = fixed_pair_outcomes(scenario.model, sp, 20_000, 555)
        keep = (a != 0) & (b != 0)
        prod = (a[keep] * b[keep]).astype(float)
        want = float(scenario.expected_postselected[sp].e_ab)
        assert abs(prod.mean() - want) <= mc_tolerance(sample_standard_error(prod))
        c = keep.astype(float)
        want_c = float(scenario.expected_postselected[sp].c_xy)
        assert abs(c.mean() - want_c) <= mc_tolerance(sample_standard_error(c))


def test_verify_catches_corrupted_expectations():
    good = lf_scenario()
    bad_table = dict(good.expected_raw)
    bad_table[SettingPair(1, 1)] = bad_table[SettingPair(1, 1)].__class__(
        e_ab=Fraction(1, 2), e_a=Fraction(1), e_b=Fraction(1), c_xy=Fraction(1))
    corrupted = Scenario(
        description=good.description, model=good.model,
        expected_raw=bad_table, expected_postselected=good.expected_postselected)
    with pytest.raises(ConstructionInvalid):
        corrupted.verify()


def _lf_table_with_c_xy_halved_at_1_1():
    table = dict(lf_scenario().expected_postselected)
    table[SettingPair(1, 1)] = table[SettingPair(1, 1)]._replace(c_xy=Fraction(1, 2))
    return table


@pytest.mark.parametrize("name, changes, want", [
    ("lf", {"expected_postselected": _lf_table_with_c_xy_halved_at_1_1()},
     "postselected c_xy(1, 1): enumerated 1.0, expected 0.5"),
], ids=["field"])
def test_verify_messages(name, changes, want):
    with pytest.raises(ConstructionInvalid) as excinfo:
        dataclasses.replace(build_scenario(name), **changes).verify()
    assert str(excinfo.value) == f"scenario {name}: {want}"


@pytest.mark.parametrize("conditioning", ("raw", "postselected"))
def test_verify_names_missing_pairs(conditioning):
    scenario = lf_scenario()
    field = f"expected_{conditioning}"
    table = {sp: r for sp, r in getattr(scenario, field).items()
             if sp not in (SettingPair(1, 1), SettingPair(-1, 1))}
    with pytest.raises(ConstructionInvalid) as excinfo:
        dataclasses.replace(scenario, **{field: table}).verify()
    assert str(excinfo.value) == (
        f"scenario lf: expected {conditioning} table lacks pairs [(1, 1), (-1, 1)]")


class TestLf:
    def test_chsh_maxima_are_exactly_two(self):
        assert exact_maxima(lf_scenario()) == (2, 2)

    def test_postselected_corner_values(self):
        model = lf_scenario().model
        assert enumerate_postselected(model, SettingPair(1, 1)).e_ab == 1
        assert enumerate_postselected(model, SettingPair(-1, -1)).e_ab == -1
        assert enumerate_postselected(model, SettingPair(1, -1)).e_ab == 0
        assert enumerate_postselected(model, SettingPair(-1, 1)).e_ab == 0

    def test_pushforward_equals_coupling_distribution(self):
        # Push the scenario's source through the four per-setting responses
        # and compare with the explicit coupling construction.
        scenario = lf_scenario()
        model = scenario.model
        weights = {}
        for (l1, l2), p in model.source.items():
            quad = (model.responses_a[1](l1, 0), model.responses_a[-1](l1, 0),
                    model.responses_b[1](l2, 0), model.responses_b[-1](l2, 0))
            weights[quad] = weights.get(quad, Fraction(0)) + p
        coupling = dict(lf_coupling().items())
        assert weights == coupling

    def test_coupling_moments_match_scenario_table(self):
        spec = joint_moments(lf_coupling(), (1, -1), (1, -1))
        table = lf_scenario().expected_postselected
        for sp in spec.pairs():
            assert spec.e_ab[sp] == table[sp].e_ab
            assert spec.e_a[sp] == table[sp].e_a
            assert spec.e_b[sp] == table[sp].e_b


class TestSocks:
    def test_perfect_correlation_identity_responses(self):
        # Equal coins read through A's identity response: every product is
        # the sign B applies, +1 at setting 1 and -1 at setting 2.
        scenario = lhvm_socks_scenario(1)
        for sp in scenario.model.pairs():
            assert enumerate_raw(scenario.model, sp).e_ab == {1: 1, 2: -1}[sp.y]
        assert scenario.s_max_abs_raw == 2
        scenario.verify()

    @pytest.mark.parametrize("p_same", [None, 0, Fraction(1, 3), 1])
    def test_builder_and_registry_agree(self, p_same):
        direct = lhvm_socks_scenario() if p_same is None else lhvm_socks_scenario(p_same)
        named = build_scenario("lhvm-socks", p_same=p_same)
        assert direct.model == named.model
        assert direct.expected_raw == named.expected_raw
        assert direct.expected_postselected == named.expected_postselected
        assert direct == named

    def test_half_correlation_with_flip_matches_brute_force(self):
        scenario = lhvm_socks_scenario(Fraction(1, 2))
        for sp in scenario.model.pairs():
            oracle = brute_force_expectations(scenario.model, sp)
            got = enumerate_raw(scenario.model, sp)
            assert float(got.e_ab) == pytest.approx(oracle["raw"][0], abs=1e-12)
        assert scenario.s_max_abs_postselected == 0

    @pytest.mark.parametrize("p_same", [0, Fraction(1, 3), Fraction(3, 4), 1])
    def test_any_knob_respects_chsh_and_no_signalling(self, p_same):
        scenario = lhvm_socks_scenario(p_same)
        scenario.verify()
        assert exact_maxima(scenario) == (2 * abs(2 * Fraction(p_same) - 1),) * 2
        assert scenario.s_max_abs_raw <= 2
        assert max_abs_deltas(scenario) == (0, 0)

    @pytest.mark.parametrize("p_same", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                        np.float32(math.inf), 1.5, Fraction(-1, 3),
                                        *(pytest.param(text, id=f"text-{text}")
                                          for text in ("nan", "inf", "abc", "7_5/100",
                                                       "3/4")),
                                        *(pytest.param(flag, id=f"bool-{flag}")
                                          for flag in (True, False))])
    def test_knob_outside_the_unit_interval_rejected(self, p_same):
        with pytest.raises(BellsimError, match=r"^p_same must be within \[0, 1\]$"):
            lhvm_socks_scenario(p_same)


class TestM2Demo:
    def test_raw_table_classical_postselected_extremal(self):
        assert exact_maxima(m2_demo_scenario()) == (Fraction(35, 96), 4)

    def test_postselected_marginals_depend_on_remote_setting(self):
        scenario = m2_demo_scenario()
        table = scenario.expected_postselected
        assert table[SettingPair(1, 1)].e_a != table[SettingPair(1, 2)].e_a

    def test_detection_rates_positive_and_below_one(self):
        scenario = m2_demo_scenario()
        for sp, r in scenario.expected_postselected.items():
            assert 0 < r.c_xy < 1


class TestM3Demo:
    def test_joints_are_not_products(self):
        model = m3_demo_scenario().model
        for sp, joint in model.instruments_joint.items():
            marg_x = {}
            marg_y = {}
            for (lx, ly), p in joint.items():
                marg_x[lx] = marg_x.get(lx, Fraction(0)) + p
                marg_y[ly] = marg_y.get(ly, Fraction(0)) + p
            product_weight = {
                (lx, ly): marg_x[lx] * marg_y[ly] for lx in marg_x for ly in marg_y}
            joint_weight = {atom: p for atom, p in joint.items()}
            assert any(product_weight.get(k, Fraction(0)) != v
                       for k, v in joint_weight.items())

    def test_joint_marginals_uniform_across_pairs(self):
        model = m3_demo_scenario().model
        for joint in model.instruments_joint.values():
            for component in (0, 1):
                marg = {}
                for atom, p in joint.items():
                    marg[atom[component]] = marg.get(atom[component], Fraction(0)) + p
                assert marg == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_product_form_joint_reduces_to_independent_model(self):
        # The same responses with a product joint must reproduce the plain
        # per-station-instrument model exactly.
        m3 = m3_demo_scenario().model
        half = Fraction(1, 2)
        product_joint = DiscreteDistribution(
            ((0, 0), (0, 1), (1, 0), (1, 1)), (Fraction(1, 4),) * 4)
        as_m3 = ExperimentModel(ModelVariant.M3, m3.settings_a, m3.settings_b, source=m3.source,
                                instruments_joint={sp: product_joint for sp in m3.pairs()},
                                responses_a=m3.responses_a, responses_b=m3.responses_b)
        uniform = DiscreteDistribution((0, 1), (half, half))
        as_m1 = ExperimentModel(ModelVariant.M1, m3.settings_a, m3.settings_b, source=m3.source,
                                instruments_a={s: uniform for s in m3.settings_a},
                                instruments_b={s: uniform for s in m3.settings_b},
                                responses_a=m3.responses_a, responses_b=m3.responses_b)
        for sp in m3.pairs():
            assert enumerate_raw(as_m3, sp) == enumerate_raw(as_m1, sp)

    def test_correlators_reach_four(self):
        scenario = m3_demo_scenario()
        assert exact_maxima(scenario) == (4, 4)
        assert all(r.c_xy == 1 for r in scenario.expected_raw.values())

    def test_marginals_do_not_depend_on_the_remote_setting(self):
        deltas = max_abs_deltas(m3_demo_scenario())
        assert deltas == (0, 0)
        assert all(type(d) is Fraction for d in deltas)


class TestQuantum:
    def test_equal_angles_give_unit_correlators(self):
        scenario = quantum_scenario((0.3, 0.3, 0.3, 0.3))
        for r in scenario.expected_raw.values():
            assert float(r.e_ab) == pytest.approx(1.0)
        assert float(scenario.s_max_abs_raw) == pytest.approx(2.0)

    def test_canonical_angles_reach_tsirelson(self):
        scenario = quantum_scenario(CANONICAL_ANGLES)
        assert float(scenario.s_max_abs_raw) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_orthogonal_pair_anticorrelates(self):
        scenario = quantum_scenario((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 8))
        assert float(scenario.expected_raw[SettingPair(1, 1)].e_ab) == pytest.approx(-1.0)

    @given(angles=st.tuples(*[st.floats(-1e300, 1e300)] * 4))
    def test_finite_angles_verify_exactly(self, angles):
        scenario = quantum_scenario(angles)
        scenario.verify()
        for sp in scenario.model.pairs():
            x, y = angles[sp.x - 1], angles[sp.y + 1]
            assert scenario.expected_raw[sp] == (math.cos(2.0 * (x - y)), 0.0, 0.0, 1.0)

    @given(angles=st.tuples(*[st.floats(-1e300, 1e300)] * 4))
    def test_finite_angles_never_signal(self, angles):
        deltas = max_abs_deltas(quantum_scenario(angles))
        assert deltas == (0.0, 0.0)
        assert all(type(d) is float for d in deltas)

    @pytest.mark.parametrize("angles", [
        (math.inf, 0.0, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0), (math.nan, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, math.nan), (1e308, -1e308, 0.0, 0.0), (0.0, 0.0, 1e308, -1e308),
        (10**400, 0, 0, 0), ("0.1", 0, 0, 0),
    ], ids=["inf", "minus-inf", "nan", "nan-b", "overflow-a", "overflow-b", "int-past-floats",
            "string"])
    def test_bad_angles_raise_invalid_model(self, angles):
        a1, a2, b1, b2 = angles
        model = ExperimentModel(ModelVariant.QUANTUM, (1, 2), (1, 2), angles_a={1: a1, 2: a2},
                                angles_b={1: b1, 2: b2})
        violations = validate_model(model)
        assert violations
        with pytest.raises(InvalidModel) as excinfo:
            quantum_scenario(angles)
        assert excinfo.value.violations == violations
