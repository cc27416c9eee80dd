import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim.core import ResponseTable, SettingPair, enumerate_postselected
from bellsim.errors import (
    BellsimError,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from bellsim.estimators import estimate_postselected
from bellsim.scenarios import build_scenario, lf_scenario, scenario_names
from bellsim.streams import (
    ClickStream,
    CoincidenceRecord,
    CoincidenceRecords,
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
    write_timetag_file,
)

from helpers import (
    ClickEvent,
    EventStream,
    callable_response_model,
    columnar,
    events,
    mc_tolerance,
)


def stream(station, *clicks):
    return columnar(EventStream(station, tuple(ClickEvent(*e) for e in clicks)))


class TestGenerate:
    def test_zero_detection_rate_gives_empty_streams(self):
        model = lf_scenario().model
        sched = Schedule.for_windows(50, 10, FixedSettings(1, 1))
        sa, sb = generate_streams(model, sched, 0.0, 7)
        assert len(sa) == 0 and len(sb) == 0

    def test_lf_fixed_pair_all_plus_one(self):
        model = lf_scenario().model
        sched = Schedule.for_windows(10, 10, FixedSettings(1, 1))
        sa, sb = generate_streams(model, sched, 1.0, 7)
        assert len(sa) == 10 and len(sb) == 10
        assert all(e.value == 1 for e in events(sa))
        assert all(e.value == 1 for e in events(sb))
        assert [e.t for e in events(sa)] == [10 * k for k in range(10)]

    def test_round_robin_cycles_pairs(self):
        model = lf_scenario().model
        sched = Schedule.for_windows(8, 5, RoundRobinSettings())
        assignment = list(schedule_settings(model, sched, 0))
        assert assignment[:4] == [SettingPair(1, 1), SettingPair(1, -1),
                                  SettingPair(-1, 1), SettingPair(-1, -1)]
        assert assignment[4:] == assignment[:4]

    def test_fixed_rule_reads_only_its_own_pair(self):
        """A fixed rule draws one pair, so only that pair's responses are
        tabulated: with station A's response table at setting 2 offline, a
        FixedSettings(1, 1) run writes what the working model writes, while
        a random-rule run raises and an undeclared fixed pair is still
        refused."""
        class Offline(Exception):
            pass

        class OfflineTable(ResponseTable):
            def __call__(self, source_value, instrument_value):
                raise Offline("station A setting 2 is offline")

        model = build_scenario("m2-demo").model
        broken = dataclasses.replace(model, responses_a={
            **model.responses_a, 2: OfflineTable(model.responses_a[2].mapping)})
        fixed = Schedule.for_windows(5000, 10, FixedSettings(1, 1))
        for got, want in zip(generate_streams(broken, fixed, 0.9, 3),
                             generate_streams(model, fixed, 0.9, 3)):
            assert events(got) == events(want)
        with pytest.raises(Offline):
            generate_streams(broken, Schedule.for_windows(10, 10, RandomSettings()), 0.9, 3)
        with pytest.raises(BellsimError, match=re.escape(
                "fixed settings (5, 1) not declared by the model")):
            generate_streams(broken, Schedule.for_windows(10, 10, FixedSettings(5, 1)), 0.9, 3)

    def test_unknown_rule_is_refused(self):
        model = lf_scenario().model
        schedule = Schedule.for_windows(10, 10, object())
        for call in (lambda: generate_streams(model, schedule, 0.9, 3),
                     lambda: schedule_settings(model, schedule, 3)):
            with pytest.raises(BellsimError, match="^unknown schedule rule <object object"):
                call()

    def test_workers_do_not_change_output(self):
        model = build_scenario("m2-demo").model
        sched = Schedule.for_windows(10_000, 100, RandomSettings())
        base = generate_streams(model, sched, 0.9, 13, workers=1)
        threaded = generate_streams(model, sched, 0.9, 13, workers=4)
        assert events(base[0]) == events(threaded[0])
        assert events(base[1]) == events(threaded[1])

    @settings(deadline=None)
    @given(name=st.sampled_from((*scenario_names(), "callable")),
           rule=st.sampled_from(("fixed", "round-robin", "random")),
           eta=st.sampled_from((1.0, 0.9)),
           counts=st.lists(st.sampled_from((1, 4095, 4096, 4097, 3 * 4096 + 1)),
                           min_size=2, max_size=2).map(sorted),
           workers=st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2))),
           seed=st.integers(0, 2 ** 32))
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, name, rule, eta, counts, workers,
                                                      seed):
        model = callable_response_model() if name == "callable" else build_scenario(name).model
        rule = {"fixed": FixedSettings(model.settings_a[-1], model.settings_b[0]),
                "round-robin": RoundRobinSettings(), "random": RandomSettings()}[rule]
        (n_short, n_long), width = counts, 10
        short, long = (generate_streams(model, Schedule(n, width, rule), eta, seed, workers=w)
                       for n, w in zip(counts, workers))
        for s, l in zip(short, long):
            kept = l.t < n_short * width
            assert s.labels == l.labels
            for column in ("t", "setting", "value"):
                assert np.array_equal(getattr(s, column), getattr(l, column)[kept]), column

    def test_schedule_settings_matches_generated_events(self):
        model = build_scenario("lhvm-socks").model
        sched = Schedule.for_windows(2_000, 10, RandomSettings())
        assignment = schedule_settings(model, sched, 3)
        sa, sb = generate_streams(model, sched, 1.0, 3)
        for e in events(sa):
            assert e.setting == assignment[e.t // 10].x
        for e in events(sb):
            assert e.setting == assignment[e.t // 10].y

    def test_schedule_window_starts_must_fit_in_int64(self):
        # Click times are int64 window starts; (n - 1)·W = 2^63 would wrap.
        width = 2 ** 62
        sched = Schedule.for_windows(2, width, FixedSettings(1, 1))
        sa, _ = generate_streams(lf_scenario().model, sched, 1.0, 1)
        assert [e.t for e in events(sa)] == [0, width]
        with pytest.raises(BellsimError, match="^last window start 9223372036854775808 ns"):
            Schedule.for_windows(3, width, FixedSettings(1, 1))
        with pytest.raises(BellsimError, match="^last window start"):
            Schedule(3, width, FixedSettings(1, 1))
        with pytest.raises(BellsimError, match="^window width 9223372036854775808 ns"):
            Schedule.for_windows(1, 2 ** 63, FixedSettings(1, 1))

    @pytest.mark.parametrize("n, width, rule", [
        (1, 1, FixedSettings(1, 1)), (3, 1000, RandomSettings()), (4097, 7, RoundRobinSettings())])
    def test_schedule_holds_its_window_count(self, n, width, rule):
        sched = Schedule(n, width, rule)
        assert sched == Schedule.for_windows(n, width, rule)
        assert [f.name for f in dataclasses.fields(Schedule)] == ["n_windows", "window_ns", "rule"]
        assert sched.n_windows == n

    @pytest.mark.parametrize("n", [0, -1])
    def test_schedule_needs_a_window(self, n):
        with pytest.raises(BellsimError, match="^a schedule needs at least one window$"):
            Schedule(n, 1000, RandomSettings())

    @pytest.mark.parametrize("n, width, refused", [
        (2.5, 10, "window count must be an integer, not 2.5"),
        ("3", 10, "window count must be an integer, not '3'"),
        (True, 10, "window count must be an integer, not True"),
        (3, True, "window width must be an integer, not True"),
        (3, 10.5, "window width must be an integer, not 10.5"),
        (3, 2.5, "window width must be an integer, not 2.5"),
        (np.int64(3), np.int64(10), None),
    ], ids=["float-count", "str-count", "bool-count", "bool-width", "float-width",
            "float-width-small", "numpy"])
    def test_window_count_and_width_must_be_integers(self, n, width, refused):
        rule = RoundRobinSettings()
        sa, sb = generate_streams(lf_scenario().model, Schedule(3, 10, rule), 1.0, 1)
        if refused is None:
            sched = Schedule(n, width, rule)
            assert sched == Schedule(3, 10, rule)
            assert type(sched.n_windows) is int and type(sched.window_ns) is int
            window = pair_coincidences(sa, sb, width).records.window
            assert window.dtype == np.int64 and window.tolist() == [0, 1, 2]
            return
        with pytest.raises(BellsimError, match=f"^{re.escape(refused)}$"):
            Schedule(n, width, rule)
        if refused.startswith("window width"):
            with pytest.raises(BellsimError, match=f"^{re.escape(refused)}$"):
                pair_coincidences(sa, sb, width)

    def test_generation_peak_memory_per_window(self):
        """Generation with one worker holds at most 20 bytes per window at
        its peak on a model whose outcomes are often 0: each station keeps
        an outcome and a setting code per window, and the int64 stream
        columns hold only the clicks."""
        model = build_scenario("m2-demo").model
        # The model's outcome grids are built on first use, not counted here.
        generate_streams(model, Schedule.for_windows(100, 1000, RandomSettings()), 0.9, 7)
        schedule = Schedule.for_windows(200_000, 1000, RandomSettings())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            generate_streams(model, schedule, 0.9, 7, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / schedule.n_windows <= 20


class TestPairing:
    def test_empty_streams_empty_records(self):
        result = pair_coincidences(stream("A"), stream("B"), 10)
        assert list(result.records) == []

    def test_lone_click_gets_zero_partner(self):
        result = pair_coincidences(stream("A", (5, 1, 1)), stream("B"), 10)
        assert list(result.records) == [CoincidenceRecord(0, SettingPair(1, None), 1, 0)]

    def test_hand_worked_example(self):
        # A clicks at t=3 (+1) and t=7 (-1) in window 0; B clicks at t=12 (-1).
        sa = stream("A", (3, 1, 1), (7, 1, -1))
        sb = stream("B", (12, 2, -1))
        result = pair_coincidences(sa, sb, 10)
        assert list(result.records) == [
            CoincidenceRecord(0, SettingPair(1, None), 1, 0),
            CoincidenceRecord(1, SettingPair(None, 2), 0, -1),
        ]
        assert result.dropped_a == 1 and result.dropped_b == 0

    @pytest.mark.parametrize("width", (2 ** 63, 2 ** 70))
    def test_width_past_int64_rejected(self, width):
        with pytest.raises(BellsimError, match=f"^window width {width} ns does not fit"):
            pair_coincidences(stream("A", (5, 1, 1)), stream("B"), width)

    def test_unsorted_stream_rejected(self):
        sa = stream("A", (9, 1, 1), (3, 1, 1))
        with pytest.raises(UnsortedStream):
            pair_coincidences(sa, stream("B"), 10)

    def test_same_window_setting_conflict(self):
        sa = stream("A", (1, 1, 1), (2, 2, 1))
        with pytest.raises(SettingConflict):
            pair_coincidences(sa, stream("B"), 10)

    def test_hint_fills_silent_side_and_cross_checks(self):
        sa = stream("A", (5, 1, 1))
        one_window = np.zeros(1, dtype=np.int64)
        result = pair_coincidences(sa, stream("B"), 10,
                                   WindowSettings((1,), (2,), one_window, one_window))
        assert list(result.records) == [CoincidenceRecord(0, SettingPair(1, 2), 1, 0)]
        with pytest.raises(SettingConflict):
            pair_coincidences(sa, stream("B"), 10,
                              WindowSettings((2,), (2,), one_window, one_window))

    def test_click_past_the_schedule_names_station_and_window(self):
        two_windows = np.zeros(2, dtype=np.int64)
        settings = WindowSettings((1,), (2,), two_windows, two_windows)
        with pytest.raises(BellsimError, match=r"^station B, window 2: past the schedule") as info:
            pair_coincidences(stream("A", (5, 1, 1)), stream("B", (25, 2, -1)), 10, settings)
        assert type(info.value) is BellsimError

    def test_negative_time_names_station(self):
        # Window 1, the last, schedules setting 2 at A: bin -1 must not read it.
        settings = WindowSettings((1, 2), (2,), np.array([0, 1]), np.zeros(2, dtype=np.int64))
        for schedule in (settings, None):
            with pytest.raises(BellsimError, match=r"^station A: negative timestamp -5$") as info:
                pair_coincidences(stream("A", (-5, 1, 1)), stream("B", (5, 2, 1)), 10, schedule)
            assert type(info.value) is BellsimError

    def test_never_produces_double_zero(self):
        gen = np.random.Generator(np.random.PCG64(2))
        ts = np.cumsum(gen.integers(1, 30, size=200))
        sa = stream("A", *[(int(t), 1, 1) for t in ts[::2]])
        sb = stream("B", *[(int(t), 1, -1) for t in ts[1::2]])
        for w in (7, 13, 104):
            for r in pair_coincidences(sa, sb, w).records:
                assert (r.a, r.b) != (0, 0)

    def test_fine_windows_never_merge_and_doubling_never_splits(self):
        gen = np.random.Generator(np.random.PCG64(5))
        ts = np.cumsum(gen.integers(5, 50, size=100))
        sa = stream("A", *[(int(t), 1, 1) for t in ts[:50]])
        sb = stream("B", *[(int(t), 1, -1) for t in ts[50:]])
        fine = pair_coincidences(sa, sb, 1)
        assert fine.dropped_a == 0 and fine.dropped_b == 0
        assert len(fine.records) == 100
        previous = len(fine.records)
        for w in (2, 4, 8, 16, 32):
            n = len(pair_coincidences(sa, sb, w).records)
            assert n <= previous
            previous = n

    def test_deterministic_on_reruns(self):
        sa = stream("A", (0, 1, 1), (1, 1, -1), (25, 2, 1))
        sb = stream("B", (3, 1, -1), (26, 1, -1))
        first = pair_coincidences(sa, sb, 10)
        second = pair_coincidences(sa, sb, 10)
        assert list(first.records) == list(second.records)

    def test_record_count_bounded_by_windows(self):
        model = lf_scenario().model
        sched = Schedule.for_windows(500, 10, RandomSettings())
        sa, sb = generate_streams(model, sched, 0.7, 19)
        result = pair_coincidences(sa, sb, 10)
        assert len(result.records) <= sched.n_windows

    def test_record_columns_are_read_only(self):
        paired = pair_coincidences(stream("A", (5, 1, 1)), stream("B", (17, 2, -1)), 10).records
        for records in (paired, CoincidenceRecords.from_rows([(0, 1, None, 1, 0)])):
            for name in ("window", "x", "y", "a", "b"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(records, name)[0] = 1

    def test_peak_memory_per_window(self):
        """Pairing generated streams with their schedule holds at most 64
        bytes per window beyond its inputs, records included; numpy reports
        its data buffers to tracemalloc."""
        model = build_scenario("quantum").model
        schedule = Schedule.for_windows(200_000, 1000, RandomSettings())
        stream_a, stream_b = generate_streams(model, schedule, 0.9, 7)
        settings = schedule_settings(model, schedule, 7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = pair_coincidences(stream_a, stream_b, 1000, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.records) > 190_000
        assert (peak - before) / schedule.n_windows <= 64

    def test_peak_memory_through_pairing(self):
        """Generation, the schedule and pairing, with one worker, hold at
        most 80 bytes per window at their peak: generation writes its
        clicks into columns allocated once, and setting codes are int8
        (92 bytes per window with per-chunk parts and int64 codes)."""
        model = build_scenario("quantum").model
        schedule = Schedule.for_windows(200_000, 1000, RandomSettings())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream_a, stream_b = generate_streams(model, schedule, 0.9, 7, workers=1)
            settings = schedule_settings(model, schedule, 7)
            result = pair_coincidences(stream_a, stream_b, 1000, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.records) > 190_000
        assert (peak - before) / schedule.n_windows <= 80


class TestRoundTrip:
    @pytest.mark.parametrize("name", scenario_names())
    def test_pipeline_converges_to_enumeration(self, name):
        scenario = build_scenario(name)
        model = scenario.model
        sched = Schedule.for_windows(20_000, 10, RandomSettings())
        sa, sb = generate_streams(model, sched, 1.0, 23)
        assignment = schedule_settings(model, sched, 23)
        pairing = pair_coincidences(sa, sb, 10, assignment)
        cs = estimate_postselected(pairing.records)
        for sp in model.pairs():
            exact = enumerate_postselected(model, sp)
            got = cs.stats(*sp)
            assert abs(got.e_ab - float(exact.e_ab)) <= mc_tolerance(got.se_ab)
            assert abs(got.e_a - float(exact.e_a)) <= mc_tolerance(got.se_a)
            assert abs(got.e_b - float(exact.e_b)) <= mc_tolerance(got.se_b)


class TestFiles:
    def test_timetag_round_trip(self, tmp_path):
        model = lf_scenario().model
        sched = Schedule.for_windows(200, 10, RandomSettings())
        sa, _ = generate_streams(model, sched, 0.8, 29)
        path = tmp_path / "a.txt"
        write_timetag_file(sa, path)
        got = ingest_timetag_file(path, station="A")
        assert got.station == "A" and events(got) == events(sa)

    def test_empty_file_gives_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert len(ingest_timetag_file(path)) == 0

    def test_three_lines_parsed_in_order(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0\t1\t+1\n5\t1\t-1\n9\t2\t+1\n")
        got = ingest_timetag_file(path, station="B")
        assert got.station == "B"
        assert events(got) == [(0, 1, 1), (5, 1, -1), (9, 2, 1)]

    def test_bad_outcome_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\t1\t+1\n5\t1\t2\n")
        with pytest.raises(ParseError) as excinfo:
            ingest_timetag_file(path)
        assert excinfo.value.line_number == 2

    def test_nonmonotonic_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("9\t1\t+1\n5\t1\t-1\n")
        with pytest.raises(NonMonotonicTimestamps) as excinfo:
            ingest_timetag_file(path)
        assert (excinfo.value.line_number, excinfo.value.path) == (2, str(path))
        assert str(excinfo.value) == f"{path}:2: timestamp 5 after 9"

    def test_coincidence_csv_round_trip(self, tmp_path):
        rows = [(0, 1, 2, 1, -1), (3, 1, None, 1, 0), (5, None, 2, 0, -1)]
        path = tmp_path / "c.csv"
        write_coincidence_csv(CoincidenceRecords.from_rows(rows), path)
        assert list(read_coincidence_csv(path)) == [
            CoincidenceRecord(0, SettingPair(1, 2), 1, -1),
            CoincidenceRecord(3, SettingPair(1, None), 1, 0),
            CoincidenceRecord(5, SettingPair(None, 2), 0, -1),
        ]

    @pytest.mark.parametrize("label, time_tags", [
        ("a b", True), ("#x", True), ("", True), ("1", True), ("x\u00e9", True),
        ("", False), ("1", False), (" 1", False), ("x\u00e9", False),
    ])
    def test_label_that_would_not_read_back_is_refused(self, label, time_tags, tmp_path):
        path = tmp_path / "out"
        kind = "time-tag" if time_tags else "CSV"
        with pytest.raises(BellsimError,
                           match=f"label {label!r} would not read back from a {kind} file"):
            if time_tags:
                write_timetag_file(ClickStream("A", [0], [0], [1], (label,)), path)
            else:
                write_coincidence_csv(CoincidenceRecords.from_rows([(0, 1, label, 1, -1)]), path)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["x1", np.int64(7), -3, "a,b", 'q"x', "a\r\nb"])
    def test_quoted_and_numpy_labels_still_write(self, label, tmp_path):
        write_coincidence_csv(CoincidenceRecords.from_rows([(0, label, 2, 1, -1)]),
                              tmp_path / "c.csv")
        assert list(read_coincidence_csv(tmp_path / "c.csv")) == [
            CoincidenceRecord(0, SettingPair(label, 2), 1, -1)]
        if "\n" not in str(label):
            clicks = ClickStream("A", [0], [0], [1], (label,))
            write_timetag_file(clicks, tmp_path / "t.txt")
            assert events(ingest_timetag_file(tmp_path / "t.txt")) == events(clicks)

    @given(label=st.one_of(st.integers(-10 ** 20, 10 ** 20), st.text(max_size=4),
                           st.sampled_from(("x1", "a,b", 'q"x', "a\r\nb", "1.5")),
                           st.integers(-100, 100).map(np.int64)))
    def test_writers_refuse_or_round_trip_a_label(self, tmp_path_factory, label):
        directory = tmp_path_factory.mktemp("labels")
        clicks = ClickStream("B", [3], [0], [-1], (label,))
        try:
            write_timetag_file(clicks, directory / "t.txt")
        except BellsimError:
            pass
        else:
            assert events(ingest_timetag_file(directory / "t.txt", "B")) == events(clicks)
        try:
            write_coincidence_csv(CoincidenceRecords.from_rows([(3, label, None, -1, 0)]),
                                  directory / "c.csv")
        except BellsimError:
            pass
        else:
            assert list(read_coincidence_csv(directory / "c.csv")) == [
                CoincidenceRecord(3, SettingPair(label, None), -1, 0)]

    def test_csv_rejects_double_zero(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("window,x,y,a,b\n0,1,1,0,0\n")
        with pytest.raises(ParseError):
            read_coincidence_csv(path)
