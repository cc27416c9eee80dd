"""Narrow setting codes and in-place generation against the int64 oracles.

Setting codes take the narrowest signed dtype that holds every code and
code + 1 (``streams._code_dtype``), and ``generate_streams`` writes each
chunk's clicks into columns allocated once.  The whole-array oracles in
``helpers`` keep per-chunk parts joined by ``np.concatenate`` and int64
codes; every column here must be value-equal to theirs, on both sides of
each dtype boundary.
"""

from __future__ import annotations

import csv
import sys
from functools import cache

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SettingPair,
)
from bellsim.scenarios import build_scenario, scenario_names
from bellsim.streams import (
    ClickStream,
    CoincidenceRecord,
    FixedSettings,
    RandomSettings,
    RoundRobinSettings,
    Schedule,
    WindowSettings,
    generate_streams,
    ingest_timetag_file,
    pair_coincidences,
    read_coincidence_csv,
    schedule_settings,
    write_coincidence_csv,
)

from helpers import (
    callable_response_model,
    oracle_columnar_generate_streams,
    oracle_columnar_pair_coincidences,
    oracle_columnar_schedule,
    oracle_ingest_timetag_file,
    oracle_read_coincidence_csv,
    oracle_write_coincidence_csv,
    sampler_model,
)


def _narrowest(n_labels):
    """The dtype codes into ``n_labels`` labels must have: int8 holds the
    codes -1 .. 126 and each code + 1."""
    return np.dtype(np.int8 if n_labels <= 127 else np.int16 if n_labels <= 32767 else np.int32)


def assert_streams_equal(got, want):
    assert (got.station, got.labels) == (want.station, want.labels)
    for name in ("t", "setting", "value"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def assert_records_equal(got, want):
    assert (got.settings_a, got.settings_b) == (want.settings_a, want.settings_b)
    assert got.x.dtype == _narrowest(len(got.settings_a))
    assert got.y.dtype == _narrowest(len(got.settings_b))
    for name in ("window", "x", "y", "a", "b"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def oracle_counts(records):
    """``count_tables`` of int64-coded records, one record at a time."""
    known = [r for r in records if None not in r.sp]
    tables = {}
    for r in known:
        tables.setdefault(r.sp, [[0] * 3 for _ in range(3)])[r.a + 1][r.b + 1] += 1
    return (tuple(x for x in records.settings_a if x in {r.sp.x for r in known}),
            tuple(y for y in records.settings_b if y in {r.sp.y for r in known}),
            tables, len(records) - len(known))


# --------------------------------------------------------------------------
# Generation, schedule and pairing


@cache
def _model(name):
    if name == "sampler":
        return sampler_model()
    if name == "callable":
        return callable_response_model()
    return build_scenario(name).model


def _rule(model, rule):
    if rule == "fixed":
        return FixedSettings(model.settings_a[-1], model.settings_b[0])
    return RoundRobinSettings() if rule == "round-robin" else RandomSettings()


def _check_pipeline(model, schedule, eta, seed, workers):
    got = generate_streams(model, schedule, eta, seed, workers=workers)
    want = oracle_columnar_generate_streams(model, schedule, eta, seed, workers=workers)
    for g, w in zip(got, want):
        assert_streams_equal(g, w)
    settings = schedule_settings(model, schedule, seed)
    want_settings = oracle_columnar_schedule(model, schedule, seed)
    assert settings.x.dtype == _narrowest(len(model.settings_a))
    assert settings.y.dtype == _narrowest(len(model.settings_b))
    assert np.array_equal(settings.x, want_settings.x)
    assert np.array_equal(settings.y, want_settings.y)
    result = pair_coincidences(*got, schedule.window_ns, settings)
    records, dropped_a, dropped_b = oracle_columnar_pair_coincidences(
        *want, schedule.window_ns, want_settings)
    assert (result.dropped_a, result.dropped_b) == (dropped_a, dropped_b)
    assert_records_equal(result.records, records)
    return result.records, records


MODEL_NAMES = (*scenario_names(), "sampler", "callable")
# One past, at and one short of the chunk edges, and a single window.
WINDOW_COUNTS = (1, 4095, 4096, 4097, 3 * 4096 + 1)


@hypothesis.settings(max_examples=12)
@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("rule", ("fixed", "round-robin", "random"))
@given(eta=st.sampled_from((1.0, 0.9, 0.3)), n_windows=st.sampled_from(WINDOW_COUNTS),
       workers=st.sampled_from((1, 2)))
def test_pipeline_matches_whole_array_oracle(name, rule, eta, n_windows, workers):
    model = _model(name)
    _check_pipeline(model, Schedule.for_windows(n_windows, 7, _rule(model, rule)), eta, 11,
                    workers)


def test_threads_write_their_own_slices():
    """More threads than cores, switching as often as the interpreter
    allows: every chunk's clicks land in their own slice of the shared
    columns and the compacted streams equal the whole-array oracle's."""
    model = _model("lhvm-socks")
    schedule = Schedule.for_windows(9 * 4096 + 3, 5, RandomSettings())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = generate_streams(model, schedule, 0.6, 3, workers=5)
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, oracle_columnar_generate_streams(model, schedule, 0.6, 3)):
        assert_streams_equal(g, w)


def _product_model(n_a, n_b):
    """An m1 model with ``n_a`` x ``n_b`` settings whose outcomes, 0
    included, depend on the setting, so that every count cell is reached."""
    source = DiscreteDistribution.uniform([(0, 0), (1, 2), (2, 1)])
    settings_a, settings_b = tuple(range(n_a)), tuple(f"b{j}" for j in range(n_b))
    inst_a = {s: DiscreteDistribution.uniform([0, 1]) for s in settings_a}
    inst_b = {s: DiscreteDistribution.uniform([0, 1]) for s in settings_b}
    resp_a = {s: ResponseTable({(l, i): (l + i + s) % 3 - 1 for l in range(3) for i in (0, 1)})
              for s in settings_a}
    resp_b = {s: ResponseTable({(l, i): (l * i + j) % 3 - 1 for l in range(3) for i in (0, 1)})
              for j, s in enumerate(settings_b)}
    return ExperimentModel(ModelVariant.M1, settings_a, settings_b, source=source,
                           instruments_a=inst_a, instruments_b=inst_b, responses_a=resp_a,
                           responses_b=resp_b)


@pytest.mark.parametrize("n_a, n_b", [(6, 6), (12, 11), (130, 2)])
@pytest.mark.parametrize("workers", (1, 2))
def test_many_settings_through_generation_and_count(n_a, n_b, workers):
    """More than 127 count cells, and with 130 settings int16 codes."""
    model = _product_model(n_a, n_b)
    schedule = Schedule.for_windows(3 * 4096 + 5, 10, RandomSettings())
    records, want = _check_pipeline(model, schedule, 0.9, 5, workers)
    want = oracle_counts(want)
    assert records.count_tables == want
    assert len(want[2]) == n_a * n_b


@pytest.mark.parametrize("n_schedule", (125, 126, 127, 130))
def test_schedule_labels_widen_the_record_codes(n_schedule):
    """The streams lack most of the schedule's labels and hold two of their
    own, so pairing extends their labels past what int8 holds; the record
    codes take the dtype of the extended labels."""
    rng = np.random.default_rng(n_schedule)
    n_windows = 400
    labels_a, labels_b = tuple(range(n_schedule))[::-1], ("u", "v")
    x = rng.integers(0, n_schedule, n_windows)
    y = rng.integers(0, 2, n_windows)
    settings = WindowSettings(labels_a, labels_b, x, y)

    def stream(station, column, labels, extra):
        clicked = np.flatnonzero(rng.random(n_windows) < 0.6)
        own = (*extra, *dict.fromkeys(labels[c] for c in column[clicked].tolist()))
        return ClickStream(station, clicked * 10 + rng.integers(0, 10, len(clicked)),
                           [own.index(labels[c]) for c in column[clicked].tolist()],
                           rng.choice((-1, 1), len(clicked)), own)

    stream_a = stream("A", x, labels_a, ("extra", 1000))
    stream_b = stream("B", y, labels_b, ("w",))
    result = pair_coincidences(stream_a, stream_b, 10, settings)
    records, _, _ = oracle_columnar_pair_coincidences(stream_a, stream_b, 10, settings)
    assert_records_equal(result.records, records)
    assert len(result.records.settings_a) == n_schedule + 2
    assert result.records.count_tables == oracle_counts(records)


# --------------------------------------------------------------------------
# Readers, count, iteration and writer


def _labels(n):
    """``n`` labels, ints and strings mixed, in an order that is not theirs."""
    labels = [i if i % 3 else f"s{i}" for i in range(n)]
    return [labels[i] for i in np.random.default_rng(n).permutation(n)]


@pytest.mark.parametrize("n_labels", (127, 128, 300))
def test_many_timetag_labels(n_labels, tmp_path):
    rng = np.random.default_rng(n_labels)
    labels = _labels(n_labels)
    picks = labels + [labels[i] for i in rng.integers(0, n_labels, 200)]
    path = tmp_path / "stream.txt"
    path.write_text("".join(f"{3 * k}\t{label}\t{rng.choice(('+1', '-1'))}\n"
                            for k, label in enumerate(picks)), encoding="ascii")
    got, want = ingest_timetag_file(path), oracle_ingest_timetag_file(path)
    assert_streams_equal(got, want)
    assert len(got.labels) == n_labels


@pytest.mark.parametrize("n_labels", (127, 128, 300))
def test_many_csv_labels(n_labels, tmp_path):
    rng = np.random.default_rng(n_labels)
    labels_a, labels_b = _labels(n_labels), _labels(n_labels)[::-1]
    pick = [[*labels, *(labels[i] for i in rng.integers(0, n_labels, 300))]
            for labels in (labels_a, labels_b)]
    rows = []
    for k, (x, y) in enumerate(zip(*pick)):
        a, b = rng.choice((-1, 0, 1)), rng.choice((-1, 1))
        if k < n_labels:    # every label occurs in a known setting
            pass
        elif k % 7 == 3:
            x, a = None, 0
        elif k % 11 == 5:
            y = None
        rows.append((2 * k, x, y, int(a), int(b)))
    path = tmp_path / "in.csv"
    with path.open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "x", "y", "a", "b"])
        writer.writerows(["" if v is None else v for v in row] for row in rows)
    records, want = read_coincidence_csv(path), oracle_read_coincidence_csv(path)
    assert_records_equal(records, want)
    assert records.x.dtype == _narrowest(n_labels)
    assert list(records) == [CoincidenceRecord(w, SettingPair(x, y), a, b)
                             for w, x, y, a, b in rows]
    assert records.count_tables == oracle_counts(want)
    write_coincidence_csv(records, tmp_path / "got.csv")
    oracle_write_coincidence_csv(want, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == path.read_bytes()
