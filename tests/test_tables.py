"""Per-pair outcome tables against the earlier implementations.

Enumeration must give Fractions ``==`` those of the term-by-term
enumerator and every table cell ``==`` its term-by-term Fraction sum, also
when the weights of one distribution have unrelated denominators.
Estimation must give counts, means and ``c_hat`` ``==`` those of the
per-record estimator, with standard errors within 1e-12 relative (they now
come from exact integer sums instead of two float passes).  On any 3x3
table, the closed-form `table_sums` must give every mean, count, ``c_hat``
and standard error ``==`` those of the generic per-statistic table passes
it replaced.  The oracles live in ``helpers``.
"""

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsim.core import (
    DiscreteDistribution,
    ExactResult,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
    outcome_table,
    table_sums,
    validate_model,
)
from bellsim.errors import (
    DegenerateConditioning,
    EmptyCell,
    InvalidModel,
    NonFiniteSpace,
    UnknownSetting,
)
from bellsim.estimators import POSTSELECTED, RAW, estimate_postselected, estimate_raw
from bellsim.scenarios import lhvm_socks_scenario, scenario_names, build_scenario
from bellsim.streams import CoincidenceRecords

from helpers import (
    ORACLE_STATISTICS,
    oracle_enumerate,
    oracle_estimate,
    oracle_standard_error,
    oracle_table,
    oracle_table_stats,
    random_lhvm_model,
)
from test_core import constant_model, two_atom_demo_model

SETTINGS = (1, 2)
OUTCOMES = (-1, 0, 1)


def assert_enumeration_matches_oracle(model):
    for sp in model.pairs():
        assert outcome_table(model, sp) == oracle_table(model, sp), sp
        want_raw, want_post = oracle_enumerate(model, sp)
        got_raw = enumerate_raw(model, sp)
        assert got_raw == want_raw, sp
        assert all(type(v) is Fraction for v in (got_raw.e_ab, got_raw.e_a,
                                                 got_raw.e_b, got_raw.c_xy))
        if want_post is None:
            with pytest.raises(DegenerateConditioning):
                enumerate_postselected(model, sp)
        else:
            assert enumerate_postselected(model, sp) == want_post, sp


# --------------------------------------------------------------------------
# Enumeration


def _distribution(draw, atoms):
    """Each probability but one is zero, a rational with its own denominator
    or the exact (dyadic) value of a float, at most 1/n each; the remaining
    atom takes the rest, so the weights need not share a denominator."""
    n = len(atoms)
    probs = []
    for _ in range(n - 1):
        kind = draw(st.sampled_from(("zero", "rational", "float")))
        if kind == "zero":
            probs.append(Fraction(0))
        elif kind == "rational":
            den = draw(st.integers(1, 40))
            probs.append(Fraction(draw(st.integers(0, den)), den * n))
        else:
            probs.append(Fraction(draw(st.floats(0, 1 / n))))
    probs.insert(draw(st.integers(0, n - 1)), 1 - sum(probs))
    return DiscreteDistribution(atoms, probs)


def _responses(draw, source_values, instrument_values):
    return ResponseTable({(s, i): draw(st.sampled_from(OUTCOMES))
                          for s in source_values for i in instrument_values})


@st.composite
def table_models(draw, variant):
    """Random m1, m2 or m3 model with small rational tables."""
    k = draw(st.integers(1, 4))
    # Station A's source values repeat across atoms, station B's do not.
    source = _distribution(draw, [(i % 3, 10 + i) for i in range(k)])
    l1 = sorted({a for a, _ in source.atoms})
    l2 = sorted({b for _, b in source.atoms})
    if variant is ModelVariant.M3:
        joints = {}
        for x in SETTINGS:
            for y in SETTINGS:
                n = draw(st.integers(1, 4))
                joints[(x, y)] = _distribution(draw, [(i % 2, i // 2) for i in range(n)])
        inst_a_values = {x: {0, 1} for x in SETTINGS}
        inst_b_values = {y: {0, 1} for y in SETTINGS}
    else:
        inst_a = {x: _distribution(draw, list(range(draw(st.integers(1, 3)))))
                  for x in SETTINGS}
        inst_b = {y: _distribution(draw, list(range(draw(st.integers(1, 3)))))
                  for y in SETTINGS}
        inst_a_values = {x: set(d.atoms) for x, d in inst_a.items()}
        inst_b_values = {y: set(d.atoms) for y, d in inst_b.items()}
    responses_a = {x: _responses(draw, l1, inst_a_values[x]) for x in SETTINGS}
    responses_b = {y: _responses(draw, l2, inst_b_values[y]) for y in SETTINGS}
    if variant is ModelVariant.M3:
        return ExperimentModel(ModelVariant.M3, SETTINGS, SETTINGS, source=source,
                               instruments_joint=joints, responses_a=responses_a,
                               responses_b=responses_b)
    return ExperimentModel(variant, SETTINGS, SETTINGS, source=source, instruments_a=inst_a,
                           instruments_b=inst_b, responses_a=responses_a, responses_b=responses_b)


@pytest.mark.parametrize("variant", [ModelVariant.M1, ModelVariant.M2, ModelVariant.M3],
                         ids=lambda v: v.value)
@given(data=st.data())
def test_random_table_models_match_term_enumeration(variant, data):
    assert_enumeration_matches_oracle(data.draw(table_models(variant)))


@pytest.mark.parametrize("name", [n for n in scenario_names() if n != "quantum"])
def test_scenarios_match_term_enumeration(name):
    assert_enumeration_matches_oracle(build_scenario(name).model)


def test_suite_models_match_term_enumeration():
    models = [constant_model(), constant_model(1, 0), constant_model(0, -1),
              two_atom_demo_model(), lhvm_socks_scenario(Fraction(1, 5)).model]
    gen = np.random.Generator(np.random.PCG64(8))
    models += [random_lhvm_model(gen) for _ in range(5)]
    for model in models:
        assert_enumeration_matches_oracle(model)


def _random_model(gen, variant, k, m):
    """Random model with k source atoms and m instrument atoms per setting
    (m joint atoms per pair for m3), responses anywhere in -1/0/+1."""
    def dist(atoms):
        w = gen.integers(1, 1000, size=len(atoms))
        return DiscreteDistribution(atoms, [Fraction(int(v), int(w.sum())) for v in w])

    source = dist([(i, i) for i in range(k)])

    def table(n_inst):
        return ResponseTable({(s, i): int(gen.choice(OUTCOMES))
                              for s in range(k) for i in range(n_inst)})

    if variant == "m3":
        side = math.isqrt(m)
        joints = {(x, y): dist([(i // side, i % side) for i in range(side * side)])
                  for x in SETTINGS for y in SETTINGS}
        return ExperimentModel(ModelVariant.M3, SETTINGS, SETTINGS, source=source,
                               instruments_joint=joints,
                               responses_a={x: table(side) for x in SETTINGS},
                               responses_b={y: table(side) for y in SETTINGS})
    inst = {s: dist(list(range(m))) for s in SETTINGS}
    return ExperimentModel(ModelVariant(variant), SETTINGS, SETTINGS, source=source,
                           instruments_a=inst, instruments_b=dict(inst),
                           responses_a={x: table(m) for x in SETTINGS},
                           responses_b={y: table(m) for y in SETTINGS})


@pytest.mark.parametrize("variant, k, m", [("m1", 150, 4), ("m1", 24, 10), ("m2", 66, 6),
                                           ("m3", 40, 64), ("m3", 120, 16)])
def test_benchmark_shapes_match_term_enumeration(variant, k, m):
    # The model shapes of the benchmark's exact workload, about 9600 terms each.
    gen = np.random.Generator(np.random.PCG64(k * 1000 + m))
    assert_enumeration_matches_oracle(_random_model(gen, variant, k, m))


def _coprime_distribution(atoms, denominators):
    """Weights 1/q for each pairwise coprime q and the rest on the last
    atom, so their common denominator is the product of the q."""
    probs = [Fraction(1, q) for q in denominators]
    return DiscreteDistribution(atoms, probs + [1 - sum(probs)])


def _wide_model(source, instruments_a, instruments_b=None, outcomes=OUTCOMES):
    """An m1 model with the given source and instrument distributions, or an
    m3 model with ``instruments_a`` as every pair's joint over pairs of 0
    and 1 when ``instruments_b`` is None; the responses are random draws
    from ``outcomes``."""
    gen = np.random.Generator(np.random.PCG64(len(source.atoms)))
    halves = [h for h, _ in source.atoms]

    def tables(values):
        return {s: ResponseTable({(h, v): int(gen.choice(outcomes))
                                  for h in halves for v in values}) for s in SETTINGS}

    if instruments_b is None:
        joints = {(x, y): instruments_a for x in SETTINGS for y in SETTINGS}
        return ExperimentModel(ModelVariant.M3, SETTINGS, SETTINGS, source=source,
                               instruments_joint=joints, responses_a=tables((0, 1)),
                               responses_b=tables((0, 1)))
    return ExperimentModel(ModelVariant.M1, SETTINGS, SETTINGS, source=source,
                           instruments_a=dict.fromkeys(SETTINGS, instruments_a),
                           instruments_b=dict.fromkeys(SETTINGS, instruments_b),
                           responses_a=tables(instruments_a.atoms),
                           responses_b=tables(instruments_b.atoms))


# 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657 and
# 2**63 + 1 = 3**3 * 19 * 43 * 5419 * 77158673929, split over the spaces.
# Responses that are always +1 put the whole of d into one cell.
@pytest.mark.parametrize("outcomes", [OUTCOMES, (1,)], ids=["random", "all-plus"])
@pytest.mark.parametrize("variant, source, instruments, d", [
    ("m1", (49, 73), ((127, 337), (92737, 649657)), 2 ** 63 - 1),
    ("m1", (27, 19), ((43, 5419), (77158673929,)), 2 ** 63 + 1),
    ("m3", (49, 73), ((127 * 337, 92737 * 649657),), 2 ** 63 - 1),
    ("m3", (27, 19), ((43 * 5419, 77158673929),), 2 ** 63 + 1),
])
def test_denominators_either_side_of_int64_match_term_enumeration(variant, source, instruments,
                                                                   d, outcomes):
    # Below 2**63 the tables are summed in int64, from 2**63 on Python ints.
    source = _coprime_distribution([(i, i) for i in range(3)], source)
    if variant == "m3":
        spaces = [_coprime_distribution([(0, 0), (1, 0), (0, 1)], *instruments), None]
    else:
        spaces = [_coprime_distribution(range(len(q) + 1), q) for q in instruments]
    model = _wide_model(source, *spaces, outcomes=outcomes)
    assert {model._tables[sp][1] for sp in model.pairs()} == {d}
    assert_enumeration_matches_oracle(model)


def test_weights_past_int64_within_tolerance_match_term_enumeration():
    # The source sums to 1 + 1/(2**63 - 1), which validation accepts, so d
    # is 2**63 - 1 but the weights total 2**63, all in the (+1, +1) cell:
    # too many for int64.
    big = Fraction(2 ** 63, 2 ** 63 - 1)
    source = DiscreteDistribution([(0, 0), (1, 1)], [Fraction(1, 7), big - Fraction(1, 7)])
    point = DiscreteDistribution.point(0)
    model = _wide_model(source, point, point, outcomes=(1,))
    assert validate_model(model) == []
    assert {model._tables[sp][1] for sp in model.pairs()} == {2 ** 63 - 1}
    assert_enumeration_matches_oracle(model)


@pytest.mark.parametrize("variant", [ModelVariant.M1, ModelVariant.M2, ModelVariant.M3],
                         ids=lambda v: v.value)
@given(data=st.data())
def test_cached_tables_answer_every_call_order(variant, data):
    # Validity and tables are computed on the first call and shared by the
    # rest, so the order of the eight calls must not matter.
    model = data.draw(table_models(variant))
    calls = [(kind, sp) for kind in ("raw", "post") for sp in model.pairs()]
    for kind, sp in data.draw(st.permutations(calls)):
        want_raw, want_post = oracle_enumerate(model, sp)
        if kind == "raw":
            assert enumerate_raw(model, sp) == want_raw
        elif want_post is None:
            with pytest.raises(DegenerateConditioning):
                enumerate_postselected(model, sp)
        else:
            assert enumerate_postselected(model, sp) == want_post
    sp = data.draw(st.sampled_from(model.pairs()))
    table = outcome_table(model, sp)
    table[0][0] += 1
    table[1].append(Fraction(1))
    table.pop()
    assert outcome_table(model, sp) == oracle_table(model, sp)
    assert enumerate_raw(model, sp) == oracle_enumerate(model, sp)[0]


@pytest.mark.parametrize("variant", [ModelVariant.M1, ModelVariant.M3], ids=lambda v: v.value)
@given(data=st.data())
def test_invalid_model_raises_the_same_error_on_every_call(variant, data):
    model = data.draw(table_models(variant))
    broken = dataclasses.replace(model, responses_b={1: model.responses_b[1]})
    messages = []
    for _ in range(2):
        for call in (outcome_table, enumerate_raw, enumerate_postselected):
            for sp in [(1, 1), (2, 2), (1, 3)]:    # (1, 3) is undeclared
                with pytest.raises(InvalidModel) as excinfo:
                    call(broken, sp)
                messages.append(str(excinfo.value))
    assert len(set(messages)) == 1
    assert "responses B: no response for setting 2" in messages[0]


def test_quantum_models_keep_their_error_order():
    quantum = build_scenario("quantum").model
    for _ in range(2):
        for call in (outcome_table, enumerate_raw, enumerate_postselected):
            with pytest.raises(UnknownSetting):
                call(quantum, (1, 3))
        with pytest.raises(NonFiniteSpace, match="quantum"):
            outcome_table(quantum, (1, 2))
        assert enumerate_raw(quantum, (1, 2)).c_xy == 1.0
    no_angle = dataclasses.replace(quantum, angles_b={1: 0.0})
    for call in (outcome_table, enumerate_raw, enumerate_postselected):
        with pytest.raises(InvalidModel, match="no angle for setting 2"):
            call(no_angle, (1, 3))


def test_table_sums_on_counts_and_weights():
    counts = [[1, 0, 2], [0, 0, 3], [4, 0, 0]]     # [a + 1][b + 1]
    (n_raw, raw, raw_squares), (n_post, post, post_squares) = table_sums(counts)
    assert (n_raw, n_post, n_post / n_raw) == (10, 7, 0.7)
    assert raw == (1 - 2 - 4, -3 + 4, -1 + 2 + 3 - 4)
    assert post == (1 - 2 - 4, -3 + 4, -1 + 2 - 4)
    assert (raw_squares, post_squares) == ((7, 7, 10), (7, 7, 7))
    # The same table as Fraction(count, 10) weights: d cancels.
    assert Fraction(n_post, n_raw) == Fraction(7, 10)
    assert tuple(Fraction(s, n_post) for s in post) == \
        (Fraction(-5, 7), Fraction(1, 7), Fraction(-3, 7))
    assert table_sums([[0, 0, 0], [1, 0, 0], [0, 0, 0]])[1][0] == 0


def _without_corners(table):
    """The table with every cell where both outcomes are non-zero emptied."""
    return [[0 if i != 1 and j != 1 else n for j, n in enumerate(row)]
            for i, row in enumerate(table)]


_tables = st.lists(st.integers(0, 2 ** 40), min_size=9, max_size=9).map(
    lambda c: [c[0:3], c[3:6], c[6:9]])
integer_tables = st.one_of(_tables, _tables.map(_without_corners)).filter(
    lambda t: any(map(any, t)))


@pytest.mark.parametrize("conditioning", [RAW, POSTSELECTED])
@given(table=integer_tables)
def test_count_statistics_match_generic_table_passes(conditioning, table):
    sp = SettingPair(1, 2)
    estimate = estimate_raw if conditioning == RAW else estimate_postselected
    # Counts past what a test can build as records: the estimators read
    # nothing of the records but their count tables.
    counted = SimpleNamespace(count_tables=((1,), (2,), {sp: table}, 0))
    got, error = _outcome(estimate, counted)
    want = oracle_table_stats(table)
    post = conditioning == POSTSELECTED
    if post and want.post is None:
        assert error == "no record with both outcomes non-zero for pair (1, 2)"
        return
    g = got.pairs[sp]
    n = want.n_post if post else want.n_raw
    assert (g.e_ab, g.e_a, g.e_b) == (want.post if post else want.raw)
    assert (g.n_raw, g.n_post, g.c_hat) == (want.n_raw, want.n_post, want.c)
    assert (g.se_ab, g.se_a, g.se_b) == tuple(
        oracle_standard_error(table, f, post, n) for f in ORACLE_STATISTICS)


def table_model(table):
    """An m1 model with P(a, b | x, y) = table[a + 1][b + 1] / total for
    every pair: the source atom is the outcome pair itself."""
    total = sum(map(sum, table))
    atoms = [(a, b) for a in OUTCOMES for b in OUTCOMES]
    source = DiscreteDistribution(atoms, [Fraction(table[a + 1][b + 1], total)
                                          for a, b in atoms])
    point = {s: DiscreteDistribution.point(0) for s in SETTINGS}
    identity = {s: ResponseTable({(o, 0): o for o in OUTCOMES}) for s in SETTINGS}
    return ExperimentModel(ModelVariant.M1, SETTINGS, SETTINGS, source=source, instruments_a=point,
                           instruments_b=point, responses_a=identity, responses_b=identity)


@given(table=integer_tables, d=st.integers(1, 2 ** 40))
def test_exact_statistics_match_generic_table_passes(table, d):
    (n_raw, raw, _), (n_post, post, _) = table_sums(table)
    want = oracle_table_stats([[Fraction(n, d) for n in row] for row in table])
    assert tuple(Fraction(s, n_raw) for s in raw) == want.raw
    assert Fraction(n_post, n_raw) == want.c
    assert (tuple(Fraction(s, n_post) for s in post) if n_post else None) == want.post
    model = table_model(table)
    total = sum(map(sum, table))
    weights = [[Fraction(n, total) for n in row] for row in table]
    want = oracle_table_stats(weights)
    for sp in model.pairs():
        assert outcome_table(model, sp) == weights
        assert enumerate_raw(model, sp) == ExactResult(*want.raw, c_xy=want.c)
        if want.post is None:
            with pytest.raises(DegenerateConditioning, match="probability zero"):
                enumerate_postselected(model, sp)
        else:
            assert enumerate_postselected(model, sp) == ExactResult(*want.post, c_xy=want.c)


def test_outcome_table_is_a_distribution():
    model = build_scenario("m2-demo").model
    for sp in model.pairs():
        table = outcome_table(model, sp)
        assert sum(sum(row) for row in table) == 1
        assert table[1][1] >= 0


# --------------------------------------------------------------------------
# Estimation

PAIRS = [SettingPair(x, y) for x in (1, 2, "h") for y in (1, 2)]
PAIRS += [SettingPair(1, None), SettingPair(None, 2)]

records_strategy = st.lists(
    st.tuples(st.sampled_from(PAIRS), st.sampled_from(OUTCOMES), st.sampled_from(OUTCOMES)),
    max_size=60,
).map(lambda rows: CoincidenceRecords.from_rows(
    [(i, x, y, a, b) for i, ((x, y), a, b) in enumerate(rows)]))


def _outcome(estimate, records):
    try:
        return estimate(records), None
    except EmptyCell as exc:
        return None, str(exc)


def assert_same_estimates(got, want):
    assert (got.settings_a, got.settings_b) == (want.settings_a, want.settings_b)
    assert (got.conditioning, got.n_unassigned) == (want.conditioning, want.n_unassigned)
    assert list(got.pairs) == list(want.pairs)
    for sp, w in want.pairs.items():
        g = got.pairs[sp]
        assert (g.e_ab, g.e_a, g.e_b, g.n_raw, g.n_post, g.c_hat) == \
            (w.e_ab, w.e_a, w.e_b, w.n_raw, w.n_post, w.c_hat), sp
        for got_se, want_se in ((g.se_ab, w.se_ab), (g.se_a, w.se_a), (g.se_b, w.se_b)):
            assert math.isclose(got_se, want_se, rel_tol=1e-12, abs_tol=0), sp


@pytest.mark.parametrize("conditioning", [RAW, POSTSELECTED])
@given(records=records_strategy)
def test_estimates_match_per_record_estimator(conditioning, records):
    estimate = estimate_raw if conditioning == RAW else estimate_postselected
    got, got_error = _outcome(estimate, records)
    want, want_error = _outcome(lambda r: oracle_estimate(r, conditioning), records)
    assert got_error == want_error
    if want is not None:
        assert_same_estimates(got, want)


@given(records=records_strategy)
def test_one_count_serves_both_conditionings_in_either_order(records):
    """Raw then post-selected, and post-selected then raw, on one records
    object: each estimate equals that of a fresh copy and the per-record
    estimator's."""
    for order in ((RAW, POSTSELECTED), (POSTSELECTED, RAW)):
        shared = dataclasses.replace(records)   # a copy whose count is not cached yet
        for conditioning in order:
            estimate = estimate_raw if conditioning == RAW else estimate_postselected
            got, got_error = _outcome(estimate, shared)
            assert (got, got_error) == _outcome(estimate, dataclasses.replace(records))
            want, want_error = _outcome(lambda r: oracle_estimate(r, conditioning), records)
            assert got_error == want_error
            if want is not None:
                assert_same_estimates(got, want)


def test_large_counts_match_per_record_estimator():
    gen = np.random.Generator(np.random.PCG64(12))
    pairs = [SettingPair(x, y) for x in SETTINGS for y in SETTINGS]
    draws = zip(gen.integers(0, 4, 20_000).tolist(), gen.integers(-1, 2, 20_000).tolist(),
                gen.integers(-1, 2, 20_000).tolist())
    records = CoincidenceRecords.from_rows([(i, *pairs[p], a, b)
                                            for i, (p, a, b) in enumerate(draws)])
    assert_same_estimates(estimate_raw(records), oracle_estimate(records, RAW))
    assert_same_estimates(estimate_postselected(records), oracle_estimate(records, POSTSELECTED))
