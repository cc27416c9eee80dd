"""Time-tagged click streams and coincidence windowing.

Generation realises the standard protocol: time is cut into synchronized
windows of fixed width W, each window gets a setting pair from a schedule
rule, one trial is sampled, and a station emits at most one click (outcome
0 means no click; an extra independent thinning by ``detection_rate``
models lost clicks).  Pairing inverts this: clicks from the two stations
are assigned to fixed aligned bins [kW, (k+1)W) and each occupied bin
becomes one record of paired outcomes, with 0 filled in for a silent
station.

Windows are fixed and aligned, never sliding; when several clicks of one
station land in one bin the earliest is kept (ties broken by value) and
the rest are counted as dropped.  Bins empty on both sides produce no
record.  For clicks ingested from files the setting of a silent station
is unknown and recorded as None; generated data can fill it from the
schedule: ``pair_coincidences`` takes the ``WindowSettings`` that
``schedule_settings`` returns.

Streams, records and the schedule are numpy columns, not one Python
object per event.  A ``ClickStream`` holds per click ``t`` (int64 ns),
``setting`` (a code into the stream's ``labels``) and ``value`` (int8).
``CoincidenceRecords`` holds per occupied bin ``window``, ``x`` and ``y``
(codes into ``settings_a`` and ``settings_b``, -1 when unknown), ``a``
and ``b``; iterating it yields ``CoincidenceRecord`` tuples with the
labels themselves, None for an unknown setting.  ``WindowSettings``
holds per window ``x`` and ``y``, codes into the model's setting labels;
pairing maps those labels into each stream's labels once and reads the
codes of the occupied windows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .core import ExperimentModel, SettingPair, _PairSampler, ensure_valid
from .errors import (
    BellsimError,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from .modelio import _decode_label, _read_ascii

_INT64 = 2 ** 63


def _codes(values, labels=()) -> tuple[np.ndarray, tuple]:
    """Codes of a sequence of labels in ``labels``, which is extended by
    the labels it lacks in order of first appearance; None codes as -1."""
    index = {label: i for i, label in enumerate(labels)}
    codes = [-1 if v is None else index.setdefault(v, len(index)) for v in values]
    return np.array(codes, dtype=np.int64), tuple(index)


def _label_array(labels) -> np.ndarray:
    """Labels as an array of objects, to index with codes."""
    out = np.empty(len(labels), dtype=object)
    for i, label in enumerate(labels):
        out[i] = label
    return out


@dataclass(frozen=True, eq=False)
class ClickStream:
    """One station's clicks in time order, one array entry per click."""

    station: str          # "A" or "B"
    t: np.ndarray         # int64 nanoseconds, non-negative
    setting: np.ndarray   # int64 code into ``labels``: the local setting at the click
    value: np.ndarray     # int8, +1 or -1; "no click" is the absence of an entry
    labels: tuple         # setting labels

    def __post_init__(self):
        for name, dtype in (("t", np.int64), ("setting", np.int64), ("value", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self):
        return len(self.t)


class CoincidenceRecord(NamedTuple):
    window: int
    sp: SettingPair   # components may be None when ingested data is silent
    a: int
    b: int


@dataclass(frozen=True, eq=False)
class CoincidenceRecords:
    """Paired outcomes, one array entry per occupied bin, in bin order."""

    window: np.ndarray    # int64
    x: np.ndarray         # int64 code into ``settings_a``, -1 when unknown
    y: np.ndarray         # int64 code into ``settings_b``, -1 when unknown
    a: np.ndarray         # int8 outcomes in {-1, 0, +1}, never both 0
    b: np.ndarray
    settings_a: tuple
    settings_b: tuple

    def __len__(self):
        return len(self.window)

    def __iter__(self):
        x = _label_array(self.settings_a + (None,))[self.x].tolist()    # code -1 picks None
        y = _label_array(self.settings_b + (None,))[self.y].tolist()
        return map(CoincidenceRecord, self.window.tolist(), map(SettingPair, x, y),
                   self.a.tolist(), self.b.tolist())

    @classmethod
    def from_rows(cls, rows: list) -> "CoincidenceRecords":
        """Records from ``(window, x, y, a, b)`` rows with setting labels,
        None when unknown."""
        window, x, y, a, b = zip(*rows) if rows else [()] * 5
        x, settings_a = _codes(x)
        y, settings_b = _codes(y)
        return cls(np.array(window, dtype=np.int64), x, y, np.array(a, dtype=np.int8),
                   np.array(b, dtype=np.int8), settings_a, settings_b)

    @classmethod
    def of(cls, records) -> "CoincidenceRecords":
        """Columns of any iterable of ``CoincidenceRecord``s; columns pass
        through unchanged."""
        if isinstance(records, cls):
            return records
        return cls.from_rows([(r.window, r.sp.x, r.sp.y, r.a, r.b) for r in records])


@dataclass(frozen=True)
class PairingResult:
    records: CoincidenceRecords
    dropped_a: int    # same-bin extra clicks discarded at station A
    dropped_b: int


# --------------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class FixedSettings:
    """Every window uses the same setting pair."""

    x: object
    y: object


@dataclass(frozen=True)
class RoundRobinSettings:
    """Windows cycle through all setting pairs in declared order."""


@dataclass(frozen=True)
class RandomSettings:
    """Each station picks a setting uniformly at random, per window."""


@dataclass(frozen=True)
class Schedule:
    duration_ns: int
    window_ns: int
    rule: object

    def __post_init__(self):
        if self.window_ns <= 0:
            raise BellsimError("window width must be positive")
        if self.duration_ns < self.window_ns:
            raise BellsimError("duration must cover at least one window")

    @property
    def n_windows(self) -> int:
        return self.duration_ns // self.window_ns

    @classmethod
    def for_windows(cls, n_windows: int, window_ns: int, rule) -> "Schedule":
        return cls(duration_ns=n_windows * window_ns, window_ns=window_ns, rule=rule)


# Columns of the per-window uniform matrix.  The layout is frozen: every
# window consumes the same columns whatever the rule or variant, which is
# what keeps chunk results independent of how windows are grouped.
_COL_SETTING_A = 0
_COL_SETTING_B = 1
_COL_SOURCE = 2      # quantum: sign draw
_COL_INST_A = 3      # m3: joint draw; quantum: same-or-different draw
_COL_INST_B = 4
_COL_THIN_A = 5
_COL_THIN_B = 6


def _setting_indices(model, rule, window_indices, u_a, u_b):
    """Per-window setting indices for both stations; uniform columns are
    consumed only by the random rule so every rule sees the same trial
    randomness."""
    n = len(window_indices)
    n_a = len(model.settings_a)
    n_b = len(model.settings_b)
    if isinstance(rule, FixedSettings):
        if rule.x not in model.settings_a or rule.y not in model.settings_b:
            raise BellsimError(
                f"fixed settings ({rule.x!r}, {rule.y!r}) not declared by the model")
        return (np.full(n, model.settings_a.index(rule.x)),
                np.full(n, model.settings_b.index(rule.y)))
    if isinstance(rule, RoundRobinSettings):
        pair = window_indices % (n_a * n_b)
        return pair // n_b, pair % n_b
    if isinstance(rule, RandomSettings):
        xs = np.minimum((u_a * n_a).astype(np.int64), n_a - 1)
        ys = np.minimum((u_b * n_b).astype(np.int64), n_b - 1)
        return xs, ys
    raise BellsimError(f"unknown schedule rule {rule!r}")


def _draw_chunk(model, rule, master_seed, chunk_index, start, stop):
    """The generator of one chunk of windows, its uniform matrix and the
    windows' setting indices.  Generation and the schedule both start
    here, so they agree on every window's settings."""
    gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
    # Full-chunk draw, sliced: window values must not depend on where the
    # schedule ends.
    u = gen.random((_rng.CHUNK, 7))[: stop - start]
    xs, ys = _setting_indices(model, rule, np.arange(start, stop, dtype=np.int64),
                              u[:, _COL_SETTING_A], u[:, _COL_SETTING_B])
    return gen, u, xs, ys


@dataclass(frozen=True, eq=False)
class WindowSettings:
    """The setting pair of every window, as code columns into the model's
    setting labels."""

    settings_a: tuple
    settings_b: tuple
    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        for x, y in zip(self.x.tolist(), self.y.tolist()):
            yield SettingPair(self.settings_a[x], self.settings_b[y])

    def __getitem__(self, k):
        """The SettingPair of window ``k``."""
        return SettingPair(self.settings_a[self.x[k]], self.settings_b[self.y[k]])


def schedule_settings(model: ExperimentModel, schedule: Schedule,
                      master_seed: int) -> WindowSettings:
    """The setting pair of every window, recomputable without generating."""

    def columns(chunk_index, start, stop):
        return _draw_chunk(model, schedule.rule, master_seed, chunk_index, start, stop)[2:]

    xs, ys = (np.concatenate(c) for c in zip(*_rng.map_chunks(columns, schedule.n_windows)))
    return WindowSettings(model.settings_a, model.settings_b, xs, ys)


# --------------------------------------------------------------------------
# Generation


def generate_streams(model: ExperimentModel, schedule: Schedule,
                     detection_rate: float, master_seed: int,
                     workers: int = 1) -> tuple[ClickStream, ClickStream]:
    """Simulate both stations' click streams for a schedule.

    Per window: the rule picks settings, one trial is sampled, outcome 0
    emits no click, and surviving clicks are independently thinned with
    probability ``1 - detection_rate``.  Clicks are stamped at the window
    start.  Results are bit-identical for any ``workers`` count.
    """
    ensure_valid(model)
    if not 0.0 <= detection_rate <= 1.0:
        raise BellsimError("detection_rate must be within [0, 1]")
    n_b = len(model.settings_b)
    samplers = [_PairSampler(model, sp) for sp in model.pairs()]    # by code x·|B| + y
    fast = all(s.fast for s in samplers)
    w = schedule.window_ns

    def build(chunk_index, start, stop):
        gen, u, xs, ys = _draw_chunk(model, schedule.rule, master_seed, chunk_index, start, stop)
        code = xs * n_b + ys
        a = np.zeros(stop - start, dtype=np.int8)
        b = np.zeros(stop - start, dtype=np.int8)
        if fast:
            for pair_code, sampler in enumerate(samplers):
                mask = code == pair_code
                if mask.any():
                    a[mask], b[mask] = sampler.outcomes_from_uniforms(
                        u[mask, _COL_SOURCE], u[mask, _COL_INST_A], u[mask, _COL_INST_B])
        else:
            # Sampler-backed spaces draw from the generator sequentially, in
            # window order, after the uniform matrix.
            for i, pair_code in enumerate(code.tolist()):
                ai, bi = samplers[pair_code].draw(gen, 1)
                a[i], b[i] = ai[0], bi[0]
        i_a = np.flatnonzero((a != 0) & (u[:, _COL_THIN_A] < detection_rate))
        i_b = np.flatnonzero((b != 0) & (u[:, _COL_THIN_B] < detection_rate))
        return (start + i_a, xs[i_a], a[i_a]), (start + i_b, ys[i_b], b[i_b])

    parts = _rng.map_chunks(build, schedule.n_windows, workers=workers)
    streams = []
    for station, labels, side in (("A", model.settings_a, 0), ("B", model.settings_b, 1)):
        windows, setting, value = (np.concatenate(c) for c in zip(*(p[side] for p in parts)))
        streams.append(ClickStream(station, windows * w, setting, value, labels))
    return tuple(streams)


# --------------------------------------------------------------------------
# Pairing


def _first_clicks(stream: ClickStream, window_ns: int):
    """The occupied bins of one stream, in order, with the kept click's
    setting code and value per bin and the number of dropped clicks.

    Raises UnsortedStream, and SettingConflict for the stream's first bin;
    a conflict in a later bin comes back as ``(bin before it, exception)``
    so that the caller can raise it in scan order.
    """
    t = stream.t
    back = np.flatnonzero(np.diff(t) < 0)
    if back.size:
        i = back[0]
        raise UnsortedStream(f"station {stream.station}: timestamp {t[i + 1]} after {t[i]}")
    bins, starts = np.unique(t // window_ns, return_index=True)
    kept = np.lexsort((stream.value, t))[starts]      # earliest, ties by value
    lo = np.minimum.reduceat(stream.setting, starts)
    hi = np.maximum.reduceat(stream.setting, starts)
    pending = None
    conflicts = np.flatnonzero(lo != hi)
    if conflicts.size:
        j = int(conflicts[0])
        stop = starts[j + 1] if j + 1 < len(starts) else len(t)
        codes = np.unique(stream.setting[starts[j]:stop]).tolist()
        conflict = SettingConflict(
            f"station {stream.station}, window {bins[j]}: "
            f"settings {sorted(str(stream.labels[c]) for c in codes)}")
        conflict.station = stream.station
        if j == 0:
            raise conflict
        pending = (int(bins[j - 1]), conflict)
    return bins, stream.setting[kept], stream.value[kept], len(t) - len(bins), pending


def _schedule_conflict(windows, clicked, scheduled, labels, station):
    """(window, exception) for the first window where a click's setting
    differs from the schedule, or None."""
    bad = np.flatnonzero((clicked >= 0) & (scheduled >= 0) & (clicked != scheduled))
    if not bad.size:
        return None
    i = bad[0]
    return int(windows[i]), SettingConflict(
        f"window {windows[i]}: station {station} clicked at setting "
        f"{labels[clicked[i]]!r} but the schedule says {labels[scheduled[i]]!r}")


def pair_coincidences(stream_a: ClickStream, stream_b: ClickStream, window_ns: int,
                      settings: "WindowSettings | None" = None) -> PairingResult:
    """Convert two click streams into per-window outcome records.

    ``settings``, the schedule's per-window setting columns, supplies the
    active setting pair for windows where a station was silent (the
    generator's schedule knows it; ingested data does not, and those slots
    stay unknown).  Bin k of the streams is window k of ``settings``.  A
    schedule that contradicts an actual click raises SettingConflict.

    Errors surface in the order a scan through the bins meets them: each
    stream's order and first bin are checked up front, a station's next
    bin when the scan passes its current one, and the schedule of a bin
    after that.
    """
    if window_ns <= 0:
        raise BellsimError("window width must be positive")
    bins_a, set_a, val_a, dropped_a, pending_a = _first_clicks(stream_a, window_ns)
    bins_b, set_b, val_b, dropped_b, pending_b = _first_clicks(stream_b, window_ns)
    both = np.sort(np.concatenate((bins_a, bins_b)))      # their union, sorted
    windows = both[np.diff(both, prepend=both[:1] - 1) != 0]
    n = len(windows)
    x = np.full(n, -1, dtype=np.int64)
    y = np.full(n, -1, dtype=np.int64)
    a = np.zeros(n, dtype=np.int8)
    b = np.zeros(n, dtype=np.int8)
    pos_a = np.searchsorted(windows, bins_a)
    pos_b = np.searchsorted(windows, bins_b)
    x[pos_a], a[pos_a] = set_a, val_a
    y[pos_b], b[pos_b] = set_b, val_b
    labels_a, labels_b = stream_a.labels, stream_b.labels
    errors = []     # ((window, order within the window's scan step), exception)
    for order, pending in enumerate((pending_a, pending_b)):
        if pending is not None:
            errors.append(((pending[0], order), pending[1]))
    if settings is not None:
        codes_a, labels_a = _codes(settings.settings_a, labels_a)
        codes_b, labels_b = _codes(settings.settings_b, labels_b)
        sched_x = codes_a[settings.x[windows]]
        sched_y = codes_b[settings.y[windows]]
        for order, found in ((2, _schedule_conflict(windows, x, sched_x, labels_a, "A")),
                             (3, _schedule_conflict(windows, y, sched_y, labels_b, "B"))):
            if found is not None:
                errors.append(((found[0], order), found[1]))
        x = np.where(x >= 0, x, sched_x)
        y = np.where(y >= 0, y, sched_y)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    records = CoincidenceRecords(windows, x, y, a, b, labels_a, labels_b)
    return PairingResult(records=records, dropped_a=dropped_a, dropped_b=dropped_b)


# --------------------------------------------------------------------------
# File formats


def ingest_timetag_file(path, station: str = "A") -> ClickStream:
    """Read a time-tag file: ``timestamp_ns<TAB>setting<TAB>outcome`` per
    line, ``#`` comments, outcomes +1 or -1.  Any whitespace separates the
    fields."""
    path = Path(path)
    times, settings, values = [], [], []
    last_t = None
    for line_number, raw in enumerate(io.StringIO(_read_ascii(path), newline=None), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}",
                             line_number=line_number, path=str(path))
        try:
            t = int(fields[0])
        except ValueError:
            raise ParseError(f"bad timestamp {fields[0]!r}",
                             line_number=line_number, path=str(path)) from None
        if t < 0:
            raise ParseError(f"negative timestamp {t}",
                             line_number=line_number, path=str(path))
        if t >= _INT64:
            raise ParseError(f"timestamp {t} out of range",
                             line_number=line_number, path=str(path))
        try:
            value = int(fields[2])
        except ValueError:
            raise ParseError(f"bad outcome {fields[2]!r}",
                             line_number=line_number, path=str(path)) from None
        if value not in (-1, 1):
            raise ParseError(f"outcome must be +1 or -1, got {fields[2]!r}",
                             line_number=line_number, path=str(path))
        if last_t is not None and t < last_t:
            raise NonMonotonicTimestamps(
                f"{path}:{line_number}: timestamp {t} after {last_t}")
        last_t = t
        times.append(t)
        settings.append(_decode_label(fields[1]))
        values.append(value)
    codes, labels = _codes(settings)
    return ClickStream(station, times, codes, values, labels)


def write_timetag_file(stream: ClickStream, path) -> None:
    settings = _label_array(stream.labels)[stream.setting].tolist()
    lines = map("{}\t{}\t{:+d}\n".format, stream.t.tolist(), settings, stream.value.tolist())
    Path(path).write_text(f"# station {stream.station}: timestamp_ns setting outcome\n"
                          + "".join(lines), encoding="ascii")


def write_coincidence_csv(records, path) -> None:
    """CSV with header ``window,x,y,a,b``; unknown settings are empty fields."""
    r = CoincidenceRecords.of(records)
    x = _label_array(r.settings_a + ("",))[r.x].tolist()     # code -1 picks ""
    y = _label_array(r.settings_b + ("",))[r.y].tolist()
    with Path(path).open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "x", "y", "a", "b"])
        writer.writerows(zip(r.window.tolist(), x, y, r.a.tolist(), r.b.tolist()))


def read_coincidence_csv(path) -> CoincidenceRecords:
    path = Path(path)
    rows = []
    reader = csv.reader(io.StringIO(_read_ascii(path), newline=""))
    line_number = 0     # of the last row read; a csv.Error belongs to the next
    try:
        header = next(reader, None)
        if header != ["window", "x", "y", "a", "b"]:
            raise ParseError("bad header, expected window,x,y,a,b",
                             line_number=1, path=str(path))
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}",
                                 line_number=line_number, path=str(path))
            try:
                window = int(row[0])
                a = int(row[3])
                b = int(row[4])
            except ValueError:
                raise ParseError("bad integer field",
                                 line_number=line_number, path=str(path)) from None
            if not -_INT64 <= window < _INT64:
                raise ParseError(f"window {window} out of range",
                                 line_number=line_number, path=str(path))
            if a not in (-1, 0, 1) or b not in (-1, 0, 1) or (a == 0 and b == 0):
                raise ParseError(f"bad outcome pair ({row[3]}, {row[4]})",
                                 line_number=line_number, path=str(path))
            rows.append((window, None if row[1] == "" else _decode_label(row[1]),
                         None if row[2] == "" else _decode_label(row[2]), a, b))
    except csv.Error as exc:
        raise ParseError(str(exc), line_number=line_number + 1, path=str(path)) from None
    return CoincidenceRecords.from_rows(rows)
