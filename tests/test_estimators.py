import math
from fractions import Fraction

import numpy as np
import pytest

from bellsim.core import SettingPair, enumerate_postselected, enumerate_raw, simulate_trials
from bellsim.coupling import joint_moments
from bellsim.errors import EmptyCell, MissingPair, UnknownSetting
from bellsim.estimators import (
    POSTSELECTED,
    RAW,
    CorrelationSet,
    PairStats,
    chsh,
    correlation_set_from_exact,
    correlation_set_to_dict,
    estimate_postselected,
    estimate_raw,
    no_signalling,
)
from bellsim.scenarios import build_scenario, lf_scenario, quantum_scenario
from bellsim.core import DiscreteDistribution

from helpers import make_records, random_lhvm_model, records_from_arrays

PAIRS_2X2 = [(x, y) for x in (1, 2) for y in (1, 2)]


def full_records(table):
    """One record list covering all four pairs; table maps (x, y) to outcome pairs."""
    records = []
    for sp, outcomes in table.items():
        records.extend(make_records(sp, outcomes))
    return records


def exact_set(scenario, conditioning=POSTSELECTED):
    table = (scenario.expected_postselected if conditioning == POSTSELECTED
             else scenario.expected_raw)
    return correlation_set_from_exact(table, scenario.model.settings_a,
                                      scenario.model.settings_b, conditioning)


class TestEstimateRaw:
    def test_constant_records(self):
        cs = estimate_raw(make_records((1, 1), [(1, 1)] * 8))
        p = cs.stats(1, 1)
        assert p.e_ab == 1 and p.se_ab == 0
        assert p.c_hat == 1

    def test_mixed_zero_records(self):
        cs = estimate_raw(make_records((1, 1), [(1, 0), (0, -1)]))
        p = cs.stats(1, 1)
        assert p.e_ab == 0
        assert p.e_a == 0.5
        assert p.e_b == -0.5
        assert p.n_post == 0

    def test_lf_generated_minus_minus_is_exactly_minus_one(self):
        model = lf_scenario().model
        a, b = simulate_trials(model, SettingPair(-1, -1), 100_000, 5)
        cs = estimate_raw(records_from_arrays((-1, -1), a, b))
        assert cs.stats(-1, -1).e_ab == -1.0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyCell):
            estimate_raw([])

    def test_unknown_setting_records_counted_not_used(self):
        records = make_records((1, 1), [(1, 1)] * 3)
        records.append(records[0]._replace(sp=SettingPair(1, None), b=0))
        cs = estimate_raw(records)
        assert cs.n_unassigned == 1
        assert cs.stats(1, 1).n_raw == 3


class TestEstimatePostselected:
    def test_conditioning_keeps_only_survivors(self):
        cs = estimate_postselected(make_records((1, 1), [(1, 1), (1, 0), (0, -1)]))
        p = cs.stats(1, 1)
        assert p.e_ab == 1
        assert p.n_post == 1 and p.n_raw == 3
        assert p.c_hat == pytest.approx(1 / 3)

    def test_zero_free_records_match_raw(self):
        table = {sp: [(1, 1), (-1, 1), (1, -1), (-1, -1), (1, 1)] for sp in PAIRS_2X2}
        records = full_records(table)
        raw = estimate_raw(records)
        post = estimate_postselected(records)
        for sp in PAIRS_2X2:
            assert raw.stats(*sp) == post.stats(*sp)

    def test_all_zero_pair_rejected(self):
        with pytest.raises(EmptyCell):
            estimate_postselected(make_records((1, 1), [(1, 0), (0, 1)]))

    def test_equals_raw_of_filtered_records(self):
        gen = np.random.Generator(np.random.PCG64(4))
        outcomes = [(-1, 0, 1)[i] for i in gen.integers(0, 3, size=400)]
        pairs = list(zip(outcomes[::2], outcomes[1::2]))
        pairs = [p for p in pairs if p != (0, 0)]
        records = full_records({sp: pairs for sp in PAIRS_2X2})
        post = estimate_postselected(records)
        filtered = estimate_raw([r for r in records if r.a * r.b != 0])
        for sp in PAIRS_2X2:
            got = post.stats(*sp)
            want = filtered.stats(*sp)
            assert (got.e_ab, got.e_a, got.e_b) == (want.e_ab, want.e_a, want.e_b)
            assert (got.se_ab, got.se_a, got.se_b) == (want.se_ab, want.se_a, want.se_b)


class TestChsh:
    def test_lf_tables_hit_classical_bound_exactly(self):
        report = chsh(exact_set(lf_scenario()))
        assert report.s_max_abs == 2
        assert report.violating_pattern is None
        assert len(report.s_values) == 8

    def test_zero_correlators(self):
        table = {sp: [(1, 1), (1, -1), (-1, 1), (-1, -1)] for sp in PAIRS_2X2}
        report = chsh(estimate_raw(full_records(table)))
        assert report.s_max_abs == 0

    def test_quantum_canonical_reaches_tsirelson(self):
        report = chsh(exact_set(quantum_scenario()))
        assert report.s_max_abs == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.violating_pattern is not None

    def test_missing_pair_rejected(self):
        records = make_records((1, 1), [(1, 1)])
        with pytest.raises(MissingPair):
            chsh(estimate_raw(records))

    def test_station_swap_with_transpose_is_invariant(self):
        scenario = build_scenario("m2-demo")
        cs = exact_set(scenario)
        swapped_pairs = {
            SettingPair(sp.y, sp.x): PairStats(
                e_ab=p.e_ab, e_a=p.e_b, e_b=p.e_a, n_raw=p.n_raw, n_post=p.n_post,
                c_hat=p.c_hat, se_ab=p.se_ab, se_a=p.se_b, se_b=p.se_a)
            for sp, p in cs.pairs.items()
        }
        swapped = CorrelationSet(cs.settings_b, cs.settings_a, swapped_pairs,
                                 cs.conditioning)
        assert chsh(swapped).s_max_abs == chsh(cs).s_max_abs

    def test_bounded_by_four_and_joint_moments_classical(self):
        gen = np.random.Generator(np.random.PCG64(12))
        for _ in range(200):
            weights = gen.random(16)
            dist = DiscreteDistribution(
                [tuple(int(v) for v in atom) for atom in
                 np.stack(np.meshgrid(*[[1, -1]] * 4, indexing="ij"), axis=-1).reshape(16, 4)],
                weights / weights.sum())
            spec = joint_moments(dist, (1, 2), (1, 2))
            cs = correlation_set_from_exact(
                {sp: _exact_from_spec(spec, sp) for sp in spec.pairs()},
                (1, 2), (1, 2), RAW)
            report = chsh(cs)
            assert report.s_max_abs <= 2 + 1e-12
            assert report.s_max_abs <= 4


def _exact_from_spec(spec, sp):
    from bellsim.core import ExactResult
    return ExactResult(spec.e_ab[sp], spec.e_a[sp], spec.e_b[sp], 1.0)


class TestNoSignalling:
    def test_lhvm_exact_deltas_vanish(self):
        scenario = build_scenario("lhvm-socks")
        report = no_signalling(exact_set(scenario))
        assert report.max_abs_delta == 0
        assert report.max_abs_z is None

    def test_lf_exact_deltas_vanish(self):
        report = no_signalling(exact_set(lf_scenario()))
        assert report.max_abs_delta == 0

    def test_m2_demo_postselected_signals(self):
        report = no_signalling(exact_set(build_scenario("m2-demo")))
        assert report.max_abs_delta > 0
        assert report.max_abs_delta == 2

    def test_m2_demo_raw_does_not_signal(self):
        report = no_signalling(exact_set(build_scenario("m2-demo"), RAW))
        assert report.max_abs_delta == 0

    def test_z_scores_standard_normal_like_on_lhvm_data(self):
        gen = np.random.Generator(np.random.PCG64(77))
        model = random_lhvm_model(gen)
        exceed = 0
        total = 0
        for rep in range(100):
            records = []
            for sp in model.pairs():
                a, b = simulate_trials(model, sp, 1000, 10_000 + rep)
                records.extend(records_from_arrays(sp, a, b))
            report = no_signalling(estimate_raw(records))
            for d in report.deltas:
                total += 1
                if d.z is not None and abs(d.z) > 3:
                    exceed += 1
        assert total == 400
        assert exceed <= 10


class TestExactSets:
    def test_exact_values_flow_through_untouched(self):
        scenario = lf_scenario()
        cs = exact_set(scenario)
        assert cs.stats(1, 1).e_ab == Fraction(1)
        assert cs.stats(1, 1).se_ab == 0.0

    def test_enumeration_agreement(self):
        scenario = build_scenario("m2-demo")
        for sp in scenario.model.pairs():
            assert enumerate_raw(scenario.model, sp) == scenario.expected_raw[sp]
            assert enumerate_postselected(scenario.model, sp) == scenario.expected_postselected[sp]

    def test_pairs_follow_the_given_settings_not_the_results(self):
        scenario = quantum_scenario()
        table = scenario.expected_raw
        settings = (scenario.model.settings_a, scenario.model.settings_b)
        reversed_cs = correlation_set_from_exact(dict(reversed(table.items())), *settings, RAW)
        cs = correlation_set_from_exact(table, *settings, RAW)
        assert list(reversed_cs.pairs) == cs.pair_order() == list(cs.pairs)
        assert correlation_set_to_dict(reversed_cs) == correlation_set_to_dict(cs)
        assert chsh(reversed_cs) == chsh(cs)

    def test_result_outside_the_settings_is_refused(self):
        table = dict(lf_scenario().expected_raw)
        table[SettingPair(1, 2)] = table[SettingPair(1, 1)]
        with pytest.raises(UnknownSetting, match=r"^result for pair \(1, 2\) outside the "
                                                 r"settings \(1, -1\) x \(1, -1\)$"):
            correlation_set_from_exact(table, (1, -1), (1, -1), RAW)
