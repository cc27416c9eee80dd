"""The exact route's shortcuts against the dense loops they replaced.

The phase-one simplex divides and eliminates only where the pivot row is
non-zero, `core.chsh_values` sums four Fractions over one denominator,
and the outcome and table-totality checks let valid responses through on
set operations.  Each must give what the loop it replaced gives (kept in
``helpers``): the same solver optimum and point, value and type, the
same coupling result and ``repr``, the same CHSH values, types and
``str`` (bit for bit for floats), and the same violation messages in
the same order.
"""

import dataclasses
import random
import struct
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim import core
from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    _instrument_values,
    _outcome_grid,
    _outcome_violations,
    chsh_values,
    enumerate_postselected,
    enumerate_raw,
    pair_order,
    validate_model,
)
from bellsim.coupling import (
    JointSpec,
    _moment_system,
    coupling_feasibility,
    random_consistent_spec,
    solve_phase_one,
)
from bellsim.errors import BellsimError, DegenerateConditioning, InvalidModel

from helpers import (
    oracle_chsh_values,
    oracle_coupling_feasibility,
    oracle_outcome_violations,
    oracle_solve_phase_one,
    oracle_table_totality,
)
from test_outcome_grid import grid_models, plain_functions

SETTINGS = (1, 2)
PAIRS = pair_order(SETTINGS, SETTINGS)
SEEDS = st.integers(0, 2 ** 32)


# --------------------------------------------------------------------------
# Phase-one simplex


def _perturbed(rng, spec, values):
    """The spec's tables, sometimes with one marginal moved off consistency
    and sometimes with one correlator anywhere in [-1, 1]."""
    tables = {"e_ab": dict(spec.e_ab), "e_a": dict(spec.e_a), "e_b": dict(spec.e_b)}
    if rng.random() < 0.3:
        table = tables[rng.choice(("e_a", "e_b"))]
        sp = rng.choice(PAIRS)
        table[sp] = max(-1.0, min(1.0, table[sp] + rng.choice((-1, 1)) * rng.uniform(0, 0.3)))
    if rng.random() < 0.3:
        tables["e_ab"][rng.choice(PAIRS)] = rng.uniform(-1, 1)
    return {label: {sp: values(v) for sp, v in table.items()} for label, table in tables.items()}


@st.composite
def grid_specs(draw):
    """Fractions on the 1/256 grid, as the benchmark's exact specs."""
    rng = random.Random(draw(SEEDS))
    spec = random_consistent_spec(rng, zero_marginals=rng.random() < 0.2)
    return JointSpec(SETTINGS, SETTINGS,
                     **_perturbed(rng, spec, lambda v: Fraction(round(v * 256), 256)))


@st.composite
def float_specs(draw):
    rng = random.Random(draw(SEEDS))
    spec = random_consistent_spec(rng, zero_marginals=rng.random() < 0.2)
    return JointSpec(SETTINGS, SETTINGS, **_perturbed(rng, spec, float))


def _weights(rng, n):
    """n positive weights with a denominator near 10**6 or beyond."""
    w = [rng.randint(1, 10 ** 6) for _ in range(n)]
    return [Fraction(v, sum(w)) for v in w]


@st.composite
def model_specs(draw):
    """The raw or post-selected moments of a random table model whose
    weights have large denominators."""
    rng = random.Random(draw(SEEDS))
    variant = rng.choice((ModelVariant.M1, ModelVariant.M2, ModelVariant.M3))
    k, m = rng.randint(1, 5), rng.randint(1, 4)
    halves_b = rng.sample(range(k), k)
    source = DiscreteDistribution([(i, halves_b[i]) for i in range(k)], _weights(rng, k))

    def tables():
        return {s: ResponseTable({(h, v): rng.choice((-1, 0, 1)) for h in range(k)
                                  for v in range(m)}) for s in SETTINGS}

    if variant is ModelVariant.M3:
        cells = [(i, j) for i in range(m) for j in range(m)]
        joints = {}
        for sp in PAIRS:
            atoms = rng.sample(cells, rng.randint(1, len(cells)))
            joints[sp] = DiscreteDistribution(atoms, _weights(rng, len(atoms)))
        model = ExperimentModel(ModelVariant.M3, SETTINGS, SETTINGS, source=source,
                                instruments_joint=joints, responses_a=tables(),
                                responses_b=tables())
    else:
        inst = {s: DiscreteDistribution(range(m), _weights(rng, m)) for s in SETTINGS}
        model = ExperimentModel(variant, SETTINGS, SETTINGS, source=source, instruments_a=inst,
                                instruments_b=dict(inst), responses_a=tables(),
                                responses_b=tables())
    enumerate_ = enumerate_postselected if rng.random() < 0.5 else enumerate_raw
    try:
        results = {sp: enumerate_(model, sp) for sp in PAIRS}
    except DegenerateConditioning:
        results = {sp: enumerate_raw(model, sp) for sp in PAIRS}
    return JointSpec.from_exact_results(results, SETTINGS, SETTINGS)


@st.composite
def boundary_specs(draw):
    """Zero marginals and a CHSH value within 3e-9 of 2, the specs where
    the float simplex and the closed-form checks meet."""
    rng = random.Random(draw(SEEDS))
    delta = draw(st.floats(-3e-9, 3e-9))
    odd = rng.randrange(4)
    sign = rng.choice((-1, 1))
    e = [(2 + delta) / 4] * 4
    if rng.random() < 0.5:      # three free correlators, the fourth closes S
        e[:3] = [rng.uniform(0.2, 1) for _ in range(3)]
        e[3] = 2 + delta - sum(e[:3])
        if not -1 <= e[3] <= 1:
            e = [(2 + delta) / 4] * 4
    e[3] = -e[3]
    e[odd], e[3] = e[3], e[odd]
    zeros = {sp: 0.0 for sp in PAIRS}
    return JointSpec(SETTINGS, SETTINGS, {sp: sign * v for sp, v in zip(PAIRS, e)},
                     zeros, dict(zeros))


def _types(solution):
    optimum, x = solution
    return type(optimum), [type(v) for v in x]


def _assert_same_decisions(spec):
    for exact in (False, True):
        rows, rhs = _moment_system(spec, exact)
        got = solve_phase_one(rows, rhs, exact=exact)
        want = oracle_solve_phase_one(rows, rhs, exact=exact)
        assert got == want
        assert _types(got) == _types(want)
        result = coupling_feasibility(spec, exact)
        oracle = oracle_coupling_feasibility(spec, exact)
        assert result == oracle
        assert repr(result) == repr(oracle)


@pytest.mark.parametrize("family", (grid_specs, float_specs, model_specs, boundary_specs),
                         ids=lambda family: family.__name__)
@settings(max_examples=80)
@given(data=st.data())
def test_sparse_pivots_decide_as_the_dense_simplex(family, data):
    _assert_same_decisions(data.draw(family()))


# Generic entries: zeros (for floats of either sign), small integers,
# rationals or floats in [-2, 2], and for floats small multiples of the
# least subnormal, which a pivot of 2 or more divides to zero.
ENTRIES = {
    True: st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=12)),
    False: st.one_of(st.sampled_from((0.0, -0.0)), st.integers(-3, 3).map(float),
                     st.floats(-2, 2), st.integers(-8, 8).map(lambda k: k * 5e-324)),
}


@st.composite
def phase_one_systems(draw, exact):
    """1-9 rows over 1-20 columns, some columns and rows zero, some rows
    repeats of others (degenerate ties), targets of either sign."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 20))
    entry = ENTRIES[exact]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        for row in rows:
            row[j] = 0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                  max_size=3)):
        rows[dst] = list(rows[src])
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [0] * n
    return rows, draw(st.lists(entry, min_size=m, max_size=m))


def _solved(solve, rows, rhs, exact):
    """The solution's value, types and text, or the error a solver raised.

    The text of ``x`` drops the sign of a zero: a skipped entry keeps its
    -0.0 where the dense loop's ``v - f * w`` may write 0.0 (a target of
    -0.0 does it), and no comparison, witness or residual reads that sign.
    The optimum's text is kept whole; it sums from the int 0.
    """
    try:
        optimum, x = solution = solve(rows, rhs, exact=exact)
    except BellsimError as exc:
        return str(exc)
    return (solution, _types(solution), repr(optimum),
            repr([abs(v) if v == 0 else v for v in x]))


@pytest.mark.parametrize("exact", (False, True), ids=("float", "exact"))
@settings(max_examples=300)
@given(data=st.data())
def test_phase_one_equals_the_dense_simplex_on_generic_systems(exact, data):
    rows, rhs = data.draw(phase_one_systems(exact))
    before = repr((rows, rhs))
    got = _solved(solve_phase_one, rows, rhs, exact)
    assert repr((rows, rhs)) == before
    assert got == _solved(oracle_solve_phase_one, rows, rhs, exact)


def test_integer_pivot_that_does_not_divide_its_row_gives_fractions():
    """An exact tableau starts on the given ints; its first pivot, 2, does
    not divide the row's 1s, so an int quotient would be a float."""
    rows, rhs = [[2, 1], [1, 3]], [1, 1]
    got = _solved(solve_phase_one, rows, rhs, True)
    assert got == _solved(oracle_solve_phase_one, rows, rhs, True)
    optimum, x = got[0]
    assert optimum == 0 and x == [Fraction(2, 5), Fraction(1, 5)]
    assert got[1] == (int, [Fraction, Fraction])


# --------------------------------------------------------------------------
# CHSH sums

FRACTIONS = st.one_of(st.fractions(-1, 1, max_denominator=256), st.fractions(-1, 1))


def _exactly(values):
    """Each S with its pattern, type and text; floats by their bits."""
    return [(pattern, type(v), struct.pack("<d", v) if isinstance(v, float) else str(v))
            for pattern, v in values]


@given(st.lists(FRACTIONS, min_size=4, max_size=4))
def test_chsh_of_fractions_equals_the_term_by_term_sums(correlators):
    got, want = chsh_values(correlators), oracle_chsh_values(correlators)
    assert got == want
    assert _exactly(got) == _exactly(want)


@given(st.lists(st.floats(allow_nan=False), min_size=4, max_size=4))
def test_chsh_of_floats_is_bit_identical(correlators):
    assert _exactly(chsh_values(correlators)) == _exactly(oracle_chsh_values(correlators))


@given(st.lists(st.one_of(st.integers(-1, 1), FRACTIONS, st.floats(-1, 1)),
                min_size=4, max_size=4))
def test_chsh_of_mixed_inputs_takes_the_term_by_term_sums(correlators):
    assert _exactly(chsh_values(correlators)) == _exactly(oracle_chsh_values(correlators))


def test_chsh_of_ints_stays_int():
    assert [type(v) for _, v in chsh_values([1, 0, -1, 1])] == [int] * 8
    assert [type(v) for _, v in chsh_values([1, Fraction(1, 2), 0, 1])] == [Fraction] * 8


# --------------------------------------------------------------------------
# Outcome and totality checks

POOL = (-1, 0, 1, 2, 1.0, True, np.int8(1), "1", None)
VARIANTS = (ModelVariant.LHVM, ModelVariant.M1, ModelVariant.M2, ModelVariant.M3)
OUTCOME_LISTS = st.one_of(st.lists(st.sampled_from((-1, 0, 1)), max_size=12),
                          st.lists(st.sampled_from((-1, 1)), max_size=12),
                          st.lists(st.sampled_from(POOL), max_size=12))


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@given(outcomes=OUTCOME_LISTS)
def test_outcome_violations_word_what_the_loop_words(variant, outcomes):
    assert (_outcome_violations(variant, "B", "x", outcomes)
            == oracle_outcome_violations(variant, "B", "x", outcomes))


def _damaged(model, seed, drop=True):
    """The model with some table entries dropped (unless not ``drop``) and
    some outcomes drawn from ``POOL``; the rates vary by model, so some
    stay intact."""
    rng = random.Random(seed)
    p_drop, p_pool = rng.choice((0, 0, 0.1)) if drop else 0, rng.choice((0, 0, 0.1, 0.3))

    def tables(responses):
        out = {}
        for s, table in responses.items():
            mapping = {}
            for key, o in table.mapping.items():
                if rng.random() >= p_drop:
                    mapping[key] = rng.choice(POOL) if rng.random() < p_pool else o
            out[s] = ResponseTable(mapping)
        return out

    return dataclasses.replace(model, responses_a=tables(model.responses_a),
                               responses_b=tables(model.responses_b))


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@settings(max_examples=60)
@given(data=st.data())
def test_validate_model_words_tables_as_the_loops(variant, data):
    model = _damaged(data.draw(grid_models(variant)), data.draw(SEEDS))
    got = validate_model(model)
    with mock.patch.object(core, "_outcome_violations", oracle_outcome_violations):
        want = [v for v in validate_model(model) if ": no entry for (" not in v]
    assert got == want + oracle_table_totality(model)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@settings(max_examples=60)
@given(data=st.data())
def test_table_grids_hold_the_per_cell_responses(variant, data):
    """A table's grid, read straight from its dict, holds what calling the
    table cell by cell gives; every source half repeats across atoms."""
    model = data.draw(grid_models(variant))
    halves = [dict.fromkeys(atom[comp] for atom in model.source.atoms) for comp in (0, 1)]
    atoms = list(product(*halves))
    model = dataclasses.replace(model, source=DiscreteDistribution(
        atoms, [Fraction(1, len(atoms))] * len(atoms)))
    for comp, labels in ((0, model.settings_a), (1, model.settings_b)):
        for s in labels:
            resp = (model.responses_a, model.responses_b)[comp][s]
            values = list(_instrument_values(model, comp, s))
            columns, grid = _outcome_grid(model, comp, s)
            assert columns == {v: j for j, v in enumerate(values)}
            assert grid.dtype == np.int8
            assert grid.tolist() == [[resp(atom[comp], v) for v in values] for atom in atoms]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@settings(max_examples=60)
@given(data=st.data())
def test_callable_grids_word_outcomes_as_the_loop(variant, data):
    model = plain_functions(_damaged(data.draw(grid_models(variant)), data.draw(SEEDS),
                                     drop=False))
    for comp, station, labels in ((0, "A", model.settings_a), (1, "B", model.settings_b)):
        for s in labels:
            resp = (model.responses_a, model.responses_b)[comp][s]
            values = list(_instrument_values(model, comp, s))
            rows = [[resp(atom[comp], v) for v in values] for atom in model.source.atoms]
            want = oracle_outcome_violations(variant, station, s, [o for r in rows for o in r])
            if want:
                with pytest.raises(InvalidModel) as caught:
                    _outcome_grid(model, comp, s)
                assert caught.value.violations == want
            else:
                columns, grid = _outcome_grid(model, comp, s)
                assert columns == {v: j for j, v in enumerate(values)}
                assert grid.dtype == np.int8
                assert np.array_equal(grid, np.array(rows, dtype=np.int8))
