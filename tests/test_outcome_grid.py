"""The outcome grid: each response tabulated once per model and setting.

Exact enumeration and the Monte Carlo path of every finite model, with
response tables or plain callables, read a model's outcome grids, so the
samplers are checked here against an independent per-element oracle:
indices drawn from each space's cdf with ``np.searchsorted`` in the test,
and the response called on the atoms they select.  ``simulate_trials`` on
callable responses is also checked against ``_PairSampler._draw_slow``,
the per-draw path that only sampler-backed spaces take.  A counting
response table shows that no cell is evaluated twice.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim import rng as _rng
from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SettingPair,
    _PairSampler,
    enumerate_postselected,
    enumerate_raw,
    sample_trial,
    simulate_trials,
)
from bellsim.errors import InvalidModel
from bellsim.scenarios import build_scenario
from bellsim.streams import RandomSettings, Schedule, generate_streams

from helpers import callable_response_model
from test_core import two_atom_demo_model

OUTCOMES = (-1, 0, 1)
LABELS = (1, 2, -3, "u", "v", "1x")


def _distribution(draw, atoms):
    """Integer weights over ``atoms``, some of them zero, at least one not."""
    weights = draw(st.lists(st.integers(0, 5), min_size=len(atoms), max_size=len(atoms))
                   .filter(any))
    return DiscreteDistribution(atoms, [Fraction(w, sum(weights)) for w in weights])


def _atoms(draw, elements, max_size=4):
    return draw(st.lists(elements, min_size=1, max_size=max_size, unique=True))


@st.composite
def grid_models(draw, variant):
    """A random m1, m2 or m3 table model with int and string labels.  The
    m3 joints draw their instrument values from two small pools, so a value
    repeats across the atoms of one joint and across pairs."""
    label = st.sampled_from(LABELS)
    settings_a = tuple(draw(st.lists(label, min_size=2, max_size=3, unique=True)))
    settings_b = tuple(draw(st.lists(label, min_size=2, max_size=3, unique=True)))
    source = _distribution(draw, _atoms(draw, st.tuples(label, label)))
    if variant is ModelVariant.M3:
        pool_a, pool_b = st.sampled_from(LABELS[:2]), st.sampled_from(LABELS[3:5])
        joints = {(x, y): _distribution(draw, _atoms(draw, st.tuples(pool_a, pool_b)))
                  for x in settings_a for y in settings_b}
        values_a = {x: {lx for (x2, _), j in joints.items() if x2 == x for lx, _ in j.atoms}
                    for x in settings_a}
        values_b = {y: {ly for (_, y2), j in joints.items() if y2 == y for _, ly in j.atoms}
                    for y in settings_b}
    else:
        inst_a = {x: _distribution(draw, _atoms(draw, label, 3)) for x in settings_a}
        inst_b = {y: _distribution(draw, _atoms(draw, label, 3)) for y in settings_b}
        values_a = {x: set(d.atoms) for x, d in inst_a.items()}
        values_b = {y: set(d.atoms) for y, d in inst_b.items()}

    def tables(comp, values):
        halves = {atom[comp] for atom in source.atoms}
        return {s: ResponseTable({(h, v): draw(st.sampled_from(OUTCOMES))
                                  for h in halves for v in vs}) for s, vs in values.items()}

    if variant is ModelVariant.M3:
        return ExperimentModel.correlated_instruments_model(
            settings_a, settings_b, source, joints, tables(0, values_a), tables(1, values_b))
    return ExperimentModel.product_model(variant, settings_a, settings_b, source, inst_a,
                                         inst_b, tables(0, values_a), tables(1, values_b))


def plain_functions(model):
    """The model with each response table wrapped in a plain function."""
    def plain(responses):
        return {s: (lambda h, v, table=table: table(h, v)) for s, table in responses.items()}

    return dataclasses.replace(model, responses_a=plain(model.responses_a),
                               responses_b=plain(model.responses_b))


def _indices(space, u):
    return np.minimum(np.searchsorted(space.cdf(), u, side="right"), len(space.atoms) - 1)


def oracle_outcomes(model, sp, u_source, u_inst_a, u_inst_b):
    """Per-element outcomes of one pair from the uniforms of its spaces."""
    src = [model.source.atoms[i] for i in _indices(model.source, u_source)]
    if model.variant is ModelVariant.M3:
        joint = model.instruments_joint[sp]
        inst = [joint.atoms[j] for j in _indices(joint, u_inst_a)]
    else:
        space_a, space_b = model.instruments_a[sp.x], model.instruments_b[sp.y]
        inst = zip([space_a.atoms[j] for j in _indices(space_a, u_inst_a)],
                   [space_b.atoms[j] for j in _indices(space_b, u_inst_b)])
    ab = [(model.responses_a[sp.x](s[0], lx), model.responses_b[sp.y](s[1], ly))
          for s, (lx, ly) in zip(src, inst)]
    return [a for a, _ in ab], [b for _, b in ab]


VARIANTS = (ModelVariant.M1, ModelVariant.M2, ModelVariant.M3)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@given(data=st.data())
def test_fast_sampler_matches_per_element_oracle(variant, data):
    model = data.draw(grid_models(variant))
    if data.draw(st.booleans(), label="plain callables"):
        model = plain_functions(model)
    uniform = st.floats(0, 1, exclude_max=True)
    for sp in model.pairs():
        sampler = _PairSampler(model, sp)
        assert sampler.fast
        spaces = ([model.source, model.instruments_joint[sp]] if variant is ModelVariant.M3
                  else [model.source, model.instruments_a[sp.x], model.instruments_b[sp.y]])
        # Random uniforms, plus every cdf step and 0, so ties and zero
        # weights are hit; the instrument columns are shuffled against the
        # source column.
        columns = []
        for space in spaces:
            u = data.draw(st.lists(uniform, min_size=1, max_size=6))
            u = np.array(u + [0.0] + [min(c, np.nextafter(1.0, 0.0)) for c in space.cdf()])
            columns.append(u)
        n = min(len(u) for u in columns)
        columns = [np.random.default_rng(i).permutation(u)[:n] for i, u in enumerate(columns)]
        a, b = sampler.outcomes_from_uniforms(*columns)
        want_a, want_b = oracle_outcomes(model, sp, *columns, *([None] * (3 - len(columns))))
        assert a.dtype == b.dtype == np.int8
        assert a.tolist() == want_a and b.tolist() == want_b, sp


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("n", (_rng.CHUNK - 1, _rng.CHUNK, _rng.CHUNK + 1))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_simulate_trials_on_callables_matches_per_draw_path(n, workers, data):
    """Chunk by chunk, the grid path draws what ``_draw_slow`` draws, calling
    each response per element, from the same chunk generators."""
    model = plain_functions(data.draw(grid_models(data.draw(st.sampled_from(VARIANTS)))))
    sp = data.draw(st.sampled_from(model.pairs()))
    seed = data.draw(st.integers(0, 2 ** 32))
    sampler = _PairSampler(model, sp)
    assert sampler.fast
    key = _rng.PURPOSE_TRIALS, model.settings_a.index(sp.x), model.settings_b.index(sp.y)
    chunks = [sampler._draw_slow(_rng.chunk_generator(seed, key, c), _rng.CHUNK)
              for c in range(-(-n // _rng.CHUNK))]
    want_a, want_b = (np.concatenate(columns)[:n] for columns in zip(*chunks))
    a, b = simulate_trials(model, sp, n, seed, workers=workers)
    assert a.tolist() == want_a.tolist() and b.tolist() == want_b.tolist()


def test_callable_outcome_on_a_null_atom_is_refused_by_every_engine():
    """A finite model means one thing to both engines: its callables are
    checked over every source atom, those of probability 0 included."""
    source = DiscreteDistribution([(0, 0), (1, 1)], [1, 0])
    inst = {s: DiscreteDistribution.point(0) for s in (1, 2)}
    resp_a = {1: lambda lam, i: 2 if lam == 1 else 1, 2: lambda lam, i: 1}
    resp_b = {s: (lambda lam, i: -1) for s in (1, 2)}
    model = ExperimentModel.product_model(ModelVariant.M1, (1, 2), (1, 2), source, inst,
                                          dict(inst), resp_a, resp_b)
    sp = SettingPair(1, 1)
    schedule = Schedule.for_windows(10, 10, RandomSettings())
    for call in (lambda: enumerate_raw(model, sp),
                 lambda: simulate_trials(model, sp, 10, 1),
                 lambda: sample_trial(model, sp, np.random.default_rng(1)),
                 lambda: generate_streams(model, schedule, 0.9, 1)):
        with pytest.raises(InvalidModel) as excinfo:
            call()
        assert excinfo.value.violations == ["responses A[1]: outcomes outside -1/0/+1: [2]"]


@pytest.mark.parametrize("workers", (1, 2))
def test_finite_callable_models_never_draw_per_element(workers, monkeypatch):
    def per_draw(self, generator, n):
        raise AssertionError("a finite model took the per-draw path")

    monkeypatch.setattr(_PairSampler, "_draw_slow", per_draw)
    model = callable_response_model()
    for sp in model.pairs():
        simulate_trials(model, sp, _rng.CHUNK + 1, 3, workers=workers)
        sample_trial(model, sp, np.random.default_rng(3))
    generate_streams(model, Schedule.for_windows(_rng.CHUNK + 1, 10, RandomSettings()), 0.9, 3,
                     workers=workers)


def _counting(model):
    """The model with every response table replaced by a counting copy, and
    the list of ``(station, setting, source value, instrument value)`` of
    every call."""
    calls = []

    class CountingTable(ResponseTable):
        def __call__(self, source_value, instrument_value):
            calls.append((self.station, self.setting, source_value, instrument_value))
            return super().__call__(source_value, instrument_value)

    def counting(station, responses):
        out = {}
        for s, table in responses.items():
            out[s] = CountingTable(table.mapping)
            object.__setattr__(out[s], "station", station)
            object.__setattr__(out[s], "setting", s)
        return out

    return dataclasses.replace(model, responses_a=counting("A", model.responses_a),
                               responses_b=counting("B", model.responses_b)), calls


def _grid_cells(model):
    """Source atoms times the instrument values of each station setting."""
    if model.variant is ModelVariant.M3:
        joints = model.instruments_joint
        values = [{lx for (x2, _), j in joints.items() if x2 == x for lx, _ in j.atoms}
                  for x in model.settings_a]
        values += [{ly for (_, y2), j in joints.items() if y2 == y for _, ly in j.atoms}
                   for y in model.settings_b]
    else:
        values = [model.instruments_a[x].atoms for x in model.settings_a]
        values += [model.instruments_b[y].atoms for y in model.settings_b]
    return len(model.source.atoms) * sum(map(len, values))


@pytest.mark.parametrize("name, cells", [("m2-demo", 32), ("m3-demo", 16)])
def test_each_grid_cell_is_evaluated_once_per_model(name, cells):
    model, calls = _counting(build_scenario(name).model)
    assert _grid_cells(model) == cells
    for sp in model.pairs():
        enumerate_raw(model, sp)
        enumerate_postselected(model, sp)
    assert len(calls) == cells
    # Distinct source atoms here have distinct halves, so no call repeats.
    assert len(set(calls)) == cells
    generate_streams(model, Schedule.for_windows(5000, 10, RandomSettings()), 0.9, 3, workers=2)
    simulate_trials(model, SettingPair(*model.pairs()[-1]), 100, 4)
    sample_trial(model, model.pairs()[0], np.random.Generator(np.random.PCG64(5)))
    assert len(calls) == cells


def test_sampler_evaluates_only_its_own_pair_responses():
    model, calls = _counting(two_atom_demo_model())
    simulate_trials(model, SettingPair(1, 2), 100, 4)
    assert {(station, s) for station, s, _, _ in calls} == {("A", 1), ("B", 2)}
    simulate_trials(model, SettingPair(1, 1), 100, 4)
    assert {(station, s) for station, s, _, _ in calls} == {("A", 1), ("B", 1), ("B", 2)}
    # Two source atoms times the instrument atoms of A[1], B[2] and B[1].
    assert len(calls) == 2 * (2 + 2 + 1)


def test_raising_response_fails_only_where_it_is_used():
    class Unavailable(Exception):
        pass

    def unavailable(source_value, instrument_value):
        raise Unavailable("station A setting 2 is offline")

    model = two_atom_demo_model()
    model = dataclasses.replace(model, responses_a={1: model.responses_a[1], 2: unavailable})
    a, b = simulate_trials(model, SettingPair(1, 1), 1000, 7)
    assert len(a) == len(b) == 1000 and set(a.tolist()) <= set(OUTCOMES)
    for _ in range(2):
        with pytest.raises(Unavailable, match="offline"):
            enumerate_raw(model, SettingPair(1, 1))
