import math
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bellsim.core import DiscreteDistribution, SettingPair
from bellsim.coupling import (
    ATOMS,
    JointSpec,
    chsh_characterization,
    chsh_statistics,
    coupling_feasibility,
    joint_moments,
    jointspec_from_dict,
    jointspec_to_dict,
    lf_coupling,
    marginal_consistency,
    pairwise_realizability,
    random_consistent_spec,
    solve_phase_one,
)
from bellsim.errors import BellsimError
from bellsim.estimators import POSTSELECTED, correlation_set_from_exact, estimate_raw
from bellsim.scenarios import lf_scenario, quantum_scenario
from bellsim.streams import (
    RoundRobinSettings,
    Schedule,
    generate_streams,
    pair_coincidences,
    schedule_settings,
)

SETTINGS_PM = (1, -1)


def spec_from_tables(correlators, marg_a, marg_b, settings=(1, 2)):
    """Build a spec from per-setting marginals and a correlator table."""
    e_ab = {}
    e_a = {}
    e_b = {}
    for i, x in enumerate(settings):
        for j, y in enumerate(settings):
            sp = SettingPair(x, y)
            e_ab[sp] = correlators[2 * i + j]
            e_a[sp] = marg_a[i]
            e_b[sp] = marg_b[j]
    return JointSpec(settings, settings, e_ab, e_a, e_b)


def lf_spec():
    scenario = lf_scenario()
    return JointSpec.from_exact_results(scenario.expected_postselected,
                                        SETTINGS_PM, SETTINGS_PM)


@pytest.mark.parametrize("settings_a, settings_b", [
    ((1, 1), (1, 2)), ((1, 2), ("b", "b")), ((1, 2, 3), (1, 2)), ((1,), (1, 2))])
def test_spec_needs_two_distinct_settings_per_station(settings_a, settings_b):
    zeros = {SettingPair(x, y): 0 for x in settings_a for y in settings_b}
    with pytest.raises(BellsimError,
                       match="^a joint spec needs exactly two distinct settings per station$"):
        JointSpec(settings_a, settings_b, zeros, zeros, zeros)


class TestLfCoupling:
    def test_support_is_the_two_quadruples(self):
        dist = lf_coupling()
        assert set(dist.atoms) == {(1, 1, 1, -1), (1, -1, 1, 1)}

    def test_probabilities_are_half_each(self):
        dist = lf_coupling()
        assert all(p == Fraction(1, 2) for p in dist.probs)

    def test_pairwise_moments(self):
        spec = joint_moments(lf_coupling(), SETTINGS_PM, SETTINGS_PM)
        assert [spec.e_ab[sp] for sp in spec.pairs()] == [1, 0, 0, -1]

    def test_moments_equal_postselected_enumeration_exactly(self):
        # Both sides are exact rationals, so equality is literal.
        spec = joint_moments(lf_coupling(), SETTINGS_PM, SETTINGS_PM)
        want = lf_spec()
        for sp in spec.pairs():
            assert spec.e_ab[sp] == want.e_ab[sp]
            assert spec.e_a[sp] == want.e_a[sp]
            assert spec.e_b[sp] == want.e_b[sp]


class TestMarginalConsistency:
    def test_lf_spec_consistent(self):
        ok, offenders = marginal_consistency(lf_spec())
        assert ok and offenders == []

    def test_inconsistent_marginal_reported(self):
        spec = spec_from_tables([0.0] * 4, [0.2, 0.0], [0.0, 0.0])
        tweaked = JointSpec(spec.settings_a, spec.settings_b, spec.e_ab,
                            {**spec.e_a, SettingPair(1, 2): 0.1}, spec.e_b)
        ok, offenders = marginal_consistency(tweaked)
        assert not ok
        assert "e_a(1)" in offenders[0]

    def test_all_zero_spec_consistent(self):
        ok, _ = marginal_consistency(spec_from_tables([0.0] * 4, [0.0, 0.0], [0.0, 0.0]))
        assert ok


class TestFeasibility:
    def test_lf_spec_feasible_with_exact_witness(self):
        result = coupling_feasibility(lf_spec(), exact=True)
        assert result.feasible
        assert result.residual == 0
        spec = joint_moments(result.witness, SETTINGS_PM, SETTINGS_PM)
        want = lf_spec()
        for sp in want.pairs():
            assert abs(float(spec.e_ab[sp] - want.e_ab[sp])) <= 1e-9
            assert abs(float(spec.e_a[sp] - want.e_a[sp])) <= 1e-9
            assert abs(float(spec.e_b[sp] - want.e_b[sp])) <= 1e-9

    def test_pr_box_infeasible_with_chsh_certificate(self):
        result = coupling_feasibility(spec_from_tables([1, 1, 1, -1], [0, 0], [0, 0]))
        assert not result.feasible
        assert "CHSH" in result.certificate
        assert "4" in result.certificate

    def test_quantum_canonical_infeasible(self):
        scenario = quantum_scenario()
        spec = JointSpec.from_exact_results(scenario.expected_postselected, (1, 2), (1, 2))
        result = coupling_feasibility(spec)
        assert not result.feasible
        assert "CHSH" in result.certificate

    def test_marginal_inconsistency_short_circuits(self):
        spec = spec_from_tables([0.0] * 4, [0.0, 0.0], [0.0, 0.0])
        tweaked = JointSpec(spec.settings_a, spec.settings_b, spec.e_ab,
                            {**spec.e_a, SettingPair(1, 1): 0.5}, spec.e_b)
        result = coupling_feasibility(tweaked)
        assert not result.feasible
        assert result.certificate.startswith("marginal-consistency")

    def test_witness_is_valid_distribution(self):
        gen = np.random.Generator(np.random.PCG64(8))
        for _ in range(50):
            spec = random_consistent_spec(gen)
            result = coupling_feasibility(spec)
            if not result.feasible:
                continue
            assert result.witness.violations() == []
            probs = np.array([float(p) for p in result.witness.probs])
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1) <= 1e-9
            got = joint_moments(result.witness, spec.settings_a, spec.settings_b)
            for sp in spec.pairs():
                assert abs(float(got.e_ab[sp]) - float(spec.e_ab[sp])) <= 1e-9

    def test_moments_of_any_joint_are_feasible(self):
        gen = np.random.Generator(np.random.PCG64(9))
        for _ in range(100):
            weights = gen.random(16)
            dist = DiscreteDistribution(ATOMS, weights / weights.sum())
            spec = joint_moments(dist, (1, 2), (1, 2))
            assert coupling_feasibility(spec).feasible

    def test_boundary_spec_feasible_exactly(self):
        spec = spec_from_tables([Fraction(1), Fraction(0), Fraction(0), Fraction(-1)],
                                [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)])
        result = coupling_feasibility(spec, exact=True)
        assert result.feasible and result.residual == 0


class TestExactMode:
    """``exact=True`` allows no tolerance: inputs a hair past a constraint
    are infeasible, while float mode keeps ``MOMENT_TOL``."""

    def test_marginal_moved_by_a_hair_is_inconsistent(self):
        spec = joint_moments(lf_coupling(), SETTINGS_PM, SETTINGS_PM)
        e_a = dict(spec.e_a)
        e_a[SettingPair(-1, 1)] += Fraction(1, 10 ** 10)
        spec = JointSpec(SETTINGS_PM, SETTINGS_PM, spec.e_ab, e_a, spec.e_b)
        result = coupling_feasibility(spec, exact=True)
        assert not result.feasible and result.residual is None
        assert result.certificate == ("marginal-consistency: e_a(-1) differs across remote "
                                      "settings by 1e-10")
        assert coupling_feasibility(spec).feasible

    def test_chsh_past_two_by_a_hair_is_infeasible(self):
        zeros = [Fraction(0)] * 2
        half = Fraction(1, 2)
        spec = spec_from_tables([half, half, half, -half - Fraction(1, 10 ** 10)], zeros, zeros)
        result = coupling_feasibility(spec, exact=True)
        assert not result.feasible and result.residual > 0
        assert result.certificate == "CHSH pattern +++-: |S| = 2.0000000001 > 2"
        assert coupling_feasibility(spec).feasible

    def test_cell_below_zero_by_a_hair_is_unrealizable(self):
        half = Fraction(1, 2)
        spec = spec_from_tables([-Fraction(1, 10 ** 10), 0, 0, 0], [half, half], [half, half])
        ok, offenders = pairwise_realizability(spec, exact=True)
        assert not ok
        assert offenders[0] == "pair (1, 1): cell (a=-1, b=-1) has probability -2.5e-11"
        assert pairwise_realizability(spec)[0]


class TestFineEquivalence:
    def test_randomized_cross_validation(self):
        gen = np.random.Generator(np.random.PCG64(2024))
        seen = {True: 0, False: 0}
        for i in range(2000):
            spec = random_consistent_spec(gen, zero_marginals=(i % 2 == 0))
            verdict = coupling_feasibility(spec).feasible
            seen[verdict] += 1
            assert verdict == chsh_characterization(spec), jointspec_to_dict(spec)
        assert min(seen.values()) > 50

    def test_exhaustive_coarse_grid_zero_marginals(self):
        grid = [-1, -0.5, 0, 0.5, 1]
        zeros = [0.0, 0.0]
        for correlators in product(grid, repeat=4):
            spec = spec_from_tables(list(correlators), zeros, zeros)
            assert coupling_feasibility(spec).feasible == chsh_characterization(spec)

    def test_characterization_matches_direct_pattern_loop(self):
        gen = np.random.Generator(np.random.PCG64(31))
        for _ in range(200):
            spec = random_consistent_spec(gen)
            es = [spec.e_ab[sp] for sp in spec.pairs()]
            direct = all(
                abs(sum(s * e for s, e in zip(signs, es))) <= 2 + 1e-9
                for signs in product((1, -1), repeat=4) if signs.count(-1) % 2 == 1)
            assert chsh_characterization(spec) == direct

    def test_exact_and_float_modes_agree(self):
        gen = np.random.Generator(np.random.PCG64(55))
        for _ in range(25):
            spec = random_consistent_spec(gen)
            assert (coupling_feasibility(spec).feasible
                    == coupling_feasibility(spec, exact=True).feasible)


ODD_SIGNS = [signs for signs in product((1, -1), repeat=4) if signs.count(-1) % 2]


def boundary_specs(rng, n):
    """Float specs on the edge of the coupling polytope, moved by a hair.

    The first is a zero-marginal spec with |S| = 2 + 1e-9.  Two in three of
    the rest have random marginals and each correlator at an edge of its
    pair's realizability envelope [|e_a + e_b| - 1, 1 - |e_a - e_b|], or
    inside it, moved by up to 2e-9; the others have zero marginals and one
    CHSH combination within 3e-9 of +-2.
    """
    a = (2 + 1e-9) / 4
    specs = [spec_from_tables([a, a, a, -a], [0.0, 0.0], [0.0, 0.0])]
    while len(specs) < n:
        if len(specs) % 3:
            marg_a = [rng.uniform(-1, 1) for _ in range(2)]
            marg_b = [rng.uniform(-1, 1) for _ in range(2)]
            correlators = []
            for ea, eb in product(marg_a, marg_b):
                lo, hi = abs(ea + eb) - 1, 1 - abs(ea - eb)
                c = rng.choice((lo, hi, rng.uniform(lo, hi))) + rng.uniform(-2e-9, 2e-9)
                correlators.append(min(1.0, max(-1.0, c)))
        else:
            marg_a = marg_b = [0.0, 0.0]
            correlators = [rng.uniform(-1, 1) for _ in range(3)]
            signs = rng.choice(ODD_SIGNS)
            s = rng.choice((2, -2)) + rng.uniform(-3e-9, 3e-9)
            last = (s - sum(sign * c for sign, c in zip(signs, correlators))) * signs[3]
            if not -1 <= last <= 1:
                continue
            correlators.append(last)
        specs.append(spec_from_tables(correlators, marg_a, marg_b))
    return specs


@pytest.fixture(scope="module")
def edge_specs():
    return boundary_specs(random.Random(7), 1500)


class TestFloatBoundary:
    """Specs within a hair of the coupling boundary, where float mode's
    tolerances meet.  Exact mode follows Fine's criterion in rationals; a
    float verdict may differ from the closed-form checks only by reaching
    the solver's fallback certificate."""

    def test_exact_mode_is_fines_criterion_in_rationals(self, edge_specs):
        for spec in edge_specs[::5]:
            fine = (pairwise_realizability(spec, exact=True)[0]
                    and all(abs(v) <= 2 for _, v in chsh_statistics(spec, exact=True)))
            assert coupling_feasibility(spec, exact=True).feasible == fine, \
                jointspec_to_dict(spec)

    def test_float_disagreements_carry_the_fallback_certificate(self, edge_specs):
        seen = {True: 0, False: 0}
        for spec in edge_specs:
            result = coupling_feasibility(spec)
            seen[result.feasible] += 1
            closed_form = chsh_characterization(spec) and pairwise_realizability(spec)[0]
            if result.feasible != closed_form:
                assert result.certificate.startswith(
                    "no joint distribution matches the moments"), jointspec_to_dict(spec)
        assert min(seen.values()) > 500


class TestPhaseOne:
    def test_feasible_system(self):
        optimum, x = solve_phase_one([[1, 1], [1, -1]], [1, 0])
        assert optimum <= 1e-12
        assert x[0] == pytest.approx(0.5) and x[1] == pytest.approx(0.5)

    def test_infeasible_system_reports_gap(self):
        # x >= 0 with x1 + x2 = 1 and x1 + x2 = 3 cannot hold.
        optimum, _ = solve_phase_one([[1, 1], [1, 1]], [1, 3])
        assert optimum == pytest.approx(2.0)

    def test_exact_mode_returns_rationals(self):
        optimum, x = solve_phase_one([[1, 1]], [Fraction(1)], exact=True)
        assert optimum == 0
        assert isinstance(x[0], Fraction)


class TestRealizability:
    def test_extreme_marginals_with_wrong_correlator_detected(self):
        spec = spec_from_tables([0.0] * 4, [0.9, 0.9], [-0.9, -0.9])
        ok, offenders = pairwise_realizability(spec)
        assert not ok
        assert offenders

    def test_certificate_for_unrealizable_pair(self):
        spec = spec_from_tables([0.9, 0.0, 0.0, 0.0], [0.9, 0.0], [-0.9, 0.0])
        result = coupling_feasibility(spec)
        assert not result.feasible
        assert "pairwise-realizability" in result.certificate


class TestSerialisation:
    def test_spec_json_round_trip(self):
        spec = lf_spec()
        again = jointspec_from_dict(jointspec_to_dict(spec))
        for sp in spec.pairs():
            assert float(again.e_ab[sp]) == float(spec.e_ab[sp])

    def test_save_load(self, tmp_path):
        from bellsim.coupling import load_jointspec, save_jointspec
        spec = spec_from_tables([0.5, 0.25, -0.5, 0.0], [0.1, 0.2], [0.0, -0.1])
        path = tmp_path / "spec.json"
        save_jointspec(spec, path)
        again = load_jointspec(path)
        for sp in spec.pairs():
            assert float(again.e_ab[sp]) == float(spec.e_ab[sp])
            assert float(again.e_a[sp]) == float(spec.e_a[sp])


class TestSpecEntries:
    """Every source of a spec is held to the same entries: each pair of the
    settings once, as a real number."""

    def test_estimates_lacking_a_pair_name_it(self):
        # Three round-robin windows visit three of the four setting pairs.
        model = lf_scenario().model
        schedule = Schedule.for_windows(3, 1000, RoundRobinSettings())
        stream_a, stream_b = generate_streams(model, schedule, 1.0, 1)
        records = pair_coincidences(stream_a, stream_b, 1000,
                                    schedule_settings(model, schedule, 1)).records
        with pytest.raises(BellsimError, match=r"^e_ab: missing entry for pair \(-1, -1\)$"):
            JointSpec.from_correlation_set(estimate_raw(records))

    def test_result_outside_the_settings_is_refused(self):
        results = dict(lf_scenario().expected_postselected)
        results[SettingPair(2, 1)] = results[SettingPair(1, 1)]
        with pytest.raises(BellsimError, match=r"^e_ab: entry for pair \(2, 1\) outside the "
                                               r"settings \(1, -1\) x \(1, -1\)$"):
            JointSpec.from_exact_results(results, SETTINGS_PM, SETTINGS_PM)

    @pytest.mark.parametrize("value", ["0", True, np.True_, None, [0]],
                             ids=["str", "bool", "numpy-bool", "none", "list"])
    def test_non_number_is_refused(self, value):
        e_a = {SettingPair(x, y): 0 for x in (1, 2) for y in (1, 2)}
        e_ab = dict(e_a) | {SettingPair(1, 2): value}
        with pytest.raises(BellsimError, match=rf"^e_ab\(1, 2\) = {re.escape(repr(value))} "
                                               r"is not a number$"):
            JointSpec((1, 2), (1, 2), e_ab, e_a, e_a)

    @pytest.mark.parametrize("value", [0.5, -1, Fraction(1, 3), np.float32(0.5), np.int64(1),
                                       np.float64(-0.25)], ids=repr)
    def test_real_numbers_are_accepted(self, value):
        e_a = {SettingPair(x, y): 0 for x in (1, 2) for y in (1, 2)}
        spec = JointSpec((1, 2), (1, 2), dict(e_a) | {SettingPair(1, 2): value}, e_a, e_a)
        assert spec.e_ab[SettingPair(1, 2)] == value

    def test_repeated_row_is_refused(self):
        data = jointspec_to_dict(lf_spec())
        data["e_b"].append([1, 1, 1.0])
        with pytest.raises(BellsimError, match=r"^e_b: repeated entry for pair \(1, 1\)$"):
            jointspec_from_dict(data)
