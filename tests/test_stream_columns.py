"""Columnar streams and pairing against the event-object oracles.

``helpers.oracle_generate_streams`` builds one ClickEvent per click and
``helpers.oracle_pair_coincidences`` walks both event lists bin by bin.
The columnar code must give the same clicks, the same records and drop
counts, and on bad input the same exception with the same message.  The
readers must turn arbitrary bytes into clicks or records, or fail with an
input error.
"""

from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellsim.core import SettingPair
from bellsim.errors import BellsimError, NonMonotonicTimestamps, ParseError
from bellsim.scenarios import build_scenario, scenario_names
from bellsim.streams import (
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
)

from helpers import (
    ClickEvent,
    EventStream,
    columnar,
    events,
    oracle_generate_streams,
    oracle_pair_coincidences,
    sampler_model,
)

# --------------------------------------------------------------------------
# Generation

RULES = {"fixed": FixedSettings(1, 1), "round-robin": RoundRobinSettings(),
         "random": RandomSettings()}
GENERATION_CASES = [(s, r) for s in scenario_names() for r in RULES]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("scenario, rule", GENERATION_CASES,
                         ids=[f"{s}-{r}" for s, r in GENERATION_CASES])
def test_generation_matches_event_oracle(scenario, rule, workers):
    model = build_scenario(scenario).model
    # 5000 windows cross the 4096-window chunk edge.
    schedule = Schedule.for_windows(5000, 100, RULES[rule])
    got = generate_streams(model, schedule, 0.9, 41, workers=workers)
    want = oracle_generate_streams(model, schedule, 0.9, 41, workers=workers)
    for g, w in zip(got, want):
        assert g.station == w.station
        assert events(g) == list(w.events)


@pytest.mark.parametrize("workers", (1, 4))
def test_sampler_backed_generation_matches_event_oracle(workers):
    model = sampler_model()
    schedule = Schedule.for_windows(4200, 10, RandomSettings())
    got = generate_streams(model, schedule, 0.8, 5, workers=workers)
    want = oracle_generate_streams(model, schedule, 0.8, 5, workers=workers)
    assert len(got[0]) > 0 and len(got[1]) > 0
    for g, w in zip(got, want):
        assert events(g) == list(w.events)


# --------------------------------------------------------------------------
# Pairing

LABELS = (1, 2, "s")   # mixed label types: schedule labels must not need sorting


@st.composite
def pairing_cases(draw):
    """A case of one of two families: ``crowded_pairing_cases`` or
    ``single_click_pairing_cases``."""
    return draw(st.one_of(crowded_pairing_cases(), single_click_pairing_cases()))


def _window_settings(draw, table):
    """``table``'s settings per station, coded into labels in an order drawn
    apart from the order in which the streams meet them."""
    labels_a, labels_b = draw(st.permutations(LABELS)), draw(st.permutations(LABELS))
    return WindowSettings(tuple(labels_a), tuple(labels_b),
                          np.array([labels_a.index(v) for v in table["A"]], dtype=np.int64),
                          np.array([labels_b.index(v) for v in table["B"]], dtype=np.int64))


@st.composite
def crowded_pairing_cases(draw):
    """Two event streams over a few bins of width ``w``, and a schedule.

    Clicks sit inside ``n_bins`` bins with timestamps from a small range,
    so bins often hold several clicks and timestamps tie.  Each click takes
    its station's true setting for the bin, or now and then another one
    (a setting conflict); a stream is now and then shuffled (unsorted).
    The schedule, when there is one, holds the true settings, other ones or
    one pair for every window, coded into labels in an order drawn apart
    from the order in which the streams meet them.
    """
    w = draw(st.integers(1, 12))
    n_bins = draw(st.integers(1, 6))
    truth = {s: draw(st.lists(st.sampled_from(LABELS), min_size=n_bins, max_size=n_bins))
             for s in "AB"}

    def clicks(station):
        rows = draw(st.lists(st.tuples(st.integers(0, n_bins * w - 1), st.sampled_from((-1, 1)),
                                       st.integers(0, 11)), max_size=10))
        rows.sort(key=lambda r: r[0])     # sorted by time only: ties keep any value order
        if draw(st.integers(0, 7)) == 0:
            rows = draw(st.permutations(rows))
        return EventStream(station, tuple(
            ClickEvent(t, draw(st.sampled_from(LABELS)) if roll == 0 else truth[station][t // w], v)
            for t, v, roll in rows))

    stream_a, stream_b = clicks("A"), clicks("B")
    kind = draw(st.sampled_from(("none", "truth", "other", "constant")))
    if kind == "none":
        return stream_a, stream_b, w, None
    if kind == "truth":
        table = truth
    elif kind == "other":
        table = {s: draw(st.lists(st.sampled_from(LABELS), min_size=n_bins, max_size=n_bins))
                 for s in "AB"}
    else:
        table = {s: [draw(st.sampled_from(LABELS))] * n_bins for s in "AB"}
    return stream_a, stream_b, w, _window_settings(draw, table)


@st.composite
def single_click_pairing_cases(draw):
    """Streams with at most one click per station per bin, spread over up
    to 200 bins, so that pairing sorts nothing.  A station may be silent;
    the schedule, when there is one, holds the true settings, now and then
    with one of them changed, and now and then ends before the last
    clicks."""
    w = draw(st.integers(1, 1000))
    n_bins = draw(st.integers(1, 200))
    truth = {s: draw(st.lists(st.sampled_from(LABELS), min_size=n_bins, max_size=n_bins))
             for s in "AB"}

    def clicks(station):
        bins = draw(st.sets(st.integers(0, n_bins - 1), max_size=n_bins))
        return EventStream(station, tuple(
            ClickEvent(k * w + draw(st.integers(0, w - 1)), truth[station][k],
                       draw(st.sampled_from((-1, 1))))
            for k in sorted(bins)))

    stream_a, stream_b = clicks("A"), clicks("B")
    if draw(st.booleans()):
        return stream_a, stream_b, w, None
    n_windows = n_bins if draw(st.integers(0, 3)) else draw(st.integers(1, n_bins))
    table = {s: truth[s][:n_windows] for s in "AB"}
    if draw(st.integers(0, 3)) == 0:
        station, k = draw(st.sampled_from("AB")), draw(st.integers(0, n_windows - 1))
        table[station][k] = draw(st.sampled_from(LABELS))
    return stream_a, stream_b, w, _window_settings(draw, table)


def _oracle_hint(settings, stream_a, w):
    """The per-window hint the event-object pairer calls; past the schedule
    it raises the error that ``pair_coincidences`` raises there."""
    if settings is None:
        return None

    def hint(k):
        if k >= len(settings):
            station = "A" if any(e.t // w == k for e in stream_a.events) else "B"
            raise BellsimError(
                f"station {station}, window {k}: past the schedule's {len(settings)} windows")
        return settings[k]

    return hint


def _outcome(fn):
    try:
        return fn()
    except BellsimError as exc:
        return type(exc), str(exc)


@hypothesis.settings(max_examples=200)
@given(pairing_cases())
def test_pairing_matches_event_oracle(case):
    stream_a, stream_b, w, settings = case
    want = _outcome(lambda: oracle_pair_coincidences(stream_a, stream_b, w,
                                                     _oracle_hint(settings, stream_a, w)))

    def columnar_pairing():
        result = pair_coincidences(columnar(stream_a), columnar(stream_b), w, settings)
        return list(result.records), result.dropped_a, result.dropped_b

    assert _outcome(columnar_pairing) == want


def test_pairing_fuzz_reaches_every_outcome():
    """The strategy above produces records, drops, unsorted streams,
    conflicts both inside a stream and against the schedule, clicks past
    the schedule, and records from more bins than a crowded case has, with
    one click per station per bin and a schedule filling silent sides."""
    seen = set()

    @hypothesis.settings(max_examples=200)
    @given(pairing_cases())
    def collect(case):
        stream_a, stream_b, w, settings = case
        outcome = _outcome(lambda: oracle_pair_coincidences(stream_a, stream_b, w,
                                                            _oracle_hint(settings, stream_a, w)))
        if isinstance(outcome[0], type):
            kind = "schedule" if "schedule says" in outcome[1] else outcome[0].__name__
            seen.add("past schedule" if "past the schedule" in outcome[1] else kind)
        else:
            seen.add("records")
            if outcome[1] or outcome[2]:
                seen.add("dropped")
            if not stream_a.events or not stream_b.events:
                seen.add("silent side")
            if len(outcome[0]) > 6 and settings is not None and any(
                    0 in (r.a, r.b) for r in outcome[0]):
                seen.add("many single-click bins")

    collect()
    assert seen == {"records", "dropped", "silent side", "UnsortedStream",
                    "SettingConflict", "schedule", "past schedule", "many single-click bins"}


def test_schedule_columns_as_hint_match_per_window_hint():
    model = build_scenario("lhvm-socks").model
    schedule = Schedule.for_windows(3000, 10, RandomSettings())
    sa, sb = generate_streams(model, schedule, 0.5, 8)
    settings = schedule_settings(model, schedule, 8)
    per_window = list(settings)
    want = oracle_pair_coincidences(EventStream("A", tuple(events(sa))),
                                    EventStream("B", tuple(events(sb))), 10,
                                    lambda k: per_window[k])
    result = pair_coincidences(sa, sb, 10, settings)
    assert (list(result.records), result.dropped_a, result.dropped_b) == want
    assert all(None not in r.sp for r in result.records)


def test_window_settings_index_by_window():
    settings = WindowSettings((1, -1), ("u", "v"), np.array([0, 1, 1]), np.array([1, 0, 1]))
    assert settings[1] == SettingPair(-1, "u")
    assert list(settings) == [SettingPair(1, "v"), SettingPair(-1, "u"), SettingPair(-1, "v")]


# --------------------------------------------------------------------------
# Readers on arbitrary bytes

# Bytes that keep the readers past their first checks most of the time.
_TIMETAG_BYTES = st.lists(st.sampled_from(
    [b"0", b"1", b"7", b"-", b"+", b"\t", b" ", b"\n", b"\r", b"#", b"a", b"\x00",
     b"\x0c", b"\xff", b"99999999999999999999"]), max_size=40).map(b"".join)
_CSV_BYTES = st.lists(st.sampled_from(
    [b"window,x,y,a,b\n", b"0", b"1", b"-1", b",", b"\n", b"\r\n", b'"', b"a",
     b"\x00", b"\xe9", b"99999999999999999999"]), max_size=40).map(b"".join)


@given(st.one_of(_TIMETAG_BYTES, st.binary(max_size=64)))
def test_timetag_reader_fails_only_with_input_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "stream.txt"
    path.write_bytes(data)
    try:
        stream = ingest_timetag_file(path)
    except (ParseError, NonMonotonicTimestamps):
        return
    assert len(stream) == len(events(stream))


@given(st.one_of(_CSV_BYTES, st.binary(max_size=64)))
def test_csv_reader_fails_only_with_input_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "c.csv"
    path.write_bytes(data)
    try:
        records = read_coincidence_csv(path)
    except ParseError:
        return
    assert all((r.a, r.b) != (0, 0) for r in records)
