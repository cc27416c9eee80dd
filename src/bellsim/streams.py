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
codes of the occupied windows.  Record columns are read-only: the count
table the estimators read is kept on the records object.  The codes of
the schedule and of the records take the narrowest signed dtype that
holds every code and code + 1 (``_code_dtype``: int8 up to 127 labels);
a ``ClickStream``'s codes are int64.

Generation writes each station's outcome, a thinned one as 0, and
setting code into columns of one entry per window, and reads the clicks
off them once.  Only bins holding more than one click of a station are
sorted and checked for conflicts; generated streams have one click per
station per window and are not sorted at all.  Pairing them with their
schedule allocates about 39 bytes per window beyond its inputs at its
peak, 12 of them the records themselves.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .core import (VALID_OUTCOMES, ExperimentModel, ResponseTable, SettingPair, _PairSampler,
                   ensure_valid)
from .errors import (
    BellsimError,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from .textio import _decode_label, _label_order, _label_text, _lines, _read_ascii

_INT64 = 2 ** 63


def _check_integer(value, what: str) -> int:
    """An int or numpy integer, not a bool, as a Python int (numpy ints can wrap)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BellsimError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _check_width(window_ns) -> int:
    window_ns = _check_integer(window_ns, "window width")
    if window_ns <= 0:
        raise BellsimError("window width must be positive")
    if window_ns >= _INT64:
        raise BellsimError(f"window width {window_ns} ns does not fit in a signed 64-bit integer")
    return window_ns


def _code_dtype(n_labels: int) -> np.dtype:
    """The narrowest signed integer dtype that holds the codes -1 ..
    ``n_labels`` - 1 of a label tuple and each code + 1: int8 up to 127
    labels.  Arithmetic on codes widens to ``np.intp`` first; a narrow
    array combined with a Python int keeps its dtype and would wrap."""
    for dtype in (np.int8, np.int16, np.int32):
        if n_labels <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _codes(values, labels=None) -> tuple[np.ndarray, tuple]:
    """Codes of a sequence of labels in ``labels``, which is extended by
    the labels it lacks in order of first appearance; None codes as -1.
    Without ``labels``, the labels found come in canonical order
    (``textio._label_order``).  Codes take the ``_code_dtype`` of the
    extended labels."""
    if labels is None:
        labels = _label_order(values)
    index = {label: i for i, label in enumerate(labels)}
    codes = [-1 if v is None else index.setdefault(v, len(index)) for v in values]
    return np.array(codes, dtype=_code_dtype(len(index))), tuple(index)


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
    x: np.ndarray         # code into ``settings_a``, -1 when unknown: ``_code_dtype``
    y: np.ndarray         # code into ``settings_b``, -1 when unknown
    a: np.ndarray         # int8 outcomes in {-1, 0, +1}, never both 0
    b: np.ndarray
    settings_a: tuple
    settings_b: tuple

    def __post_init__(self):
        # Read-only, so that ``count_tables`` cannot go stale.
        for column in (self.window, self.x, self.y, self.a, self.b):
            column.flags.writeable = False

    def __len__(self):
        return len(self.window)

    @cached_property
    def count_tables(self) -> tuple[tuple, tuple, dict, int]:
        """Each station's labels that occur in a known setting pair, in label
        order; a 3x3 count table over the outcomes (a, b) per such pair, in
        that order; and the number of records with a partially unknown pair."""
        n_a, n_b = len(self.settings_a), len(self.settings_b)
        x, y, a, b = self.x, self.y, self.a, self.b
        known = (x >= 0) & (y >= 0)
        if not known.all():
            x, y, a, b = x[known], y[known], a[known], b[known]
        cell = x.astype(np.intp)
        cell *= n_b
        cell += y                           # the pair code x·|B| + y
        cell *= 3
        cell += a
        cell *= 3
        cell += b
        cell += 4                           # (pair·3 + a + 1)·3 + b + 1
        counts = np.bincount(cell, minlength=9 * n_a * n_b).reshape(n_a, n_b, 3, 3)
        seen = counts.any(axis=(2, 3))
        tables = {SettingPair(self.settings_a[i], self.settings_b[j]): counts[i, j].tolist()
                  for i, j in np.argwhere(seen).tolist()}
        return (tuple(compress(self.settings_a, seen.any(axis=1))),
                tuple(compress(self.settings_b, seen.any(axis=0))), tables, len(self) - len(cell))

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


class PairingResult(NamedTuple):
    records: CoincidenceRecords
    dropped_a: int    # same-bin extra clicks discarded at station A
    dropped_b: int


# --------------------------------------------------------------------------
# Schedules


class FixedSettings(NamedTuple):
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
    n_windows: int
    window_ns: int
    rule: object

    def __post_init__(self):
        object.__setattr__(self, "window_ns", _check_width(self.window_ns))
        object.__setattr__(self, "n_windows", _check_integer(self.n_windows, "window count"))
        if self.n_windows < 1:
            raise BellsimError("a schedule needs at least one window")
        last_start = (self.n_windows - 1) * self.window_ns     # the last click time
        if last_start >= _INT64:
            raise BellsimError(
                f"last window start {last_start} ns does not fit in a signed 64-bit integer")

    @classmethod
    def for_windows(cls, n_windows: int, window_ns: int, rule) -> "Schedule":
        return cls(n_windows, window_ns, rule)


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
    return (gen, u, xs.astype(_code_dtype(len(model.settings_a))),
            ys.astype(_code_dtype(len(model.settings_b))))


@dataclass(frozen=True, eq=False)
class WindowSettings:
    """The setting pair of every window, as code columns into the model's
    setting labels."""

    settings_a: tuple
    settings_b: tuple
    x: np.ndarray         # code into ``settings_a``: ``_code_dtype``
    y: np.ndarray         # code into ``settings_b``

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

    A station clicks at most once per window, so each station's outcome
    and setting code columns hold one entry per window; chunk c writes
    its windows' entries from window c·CHUNK on, a thinned outcome as 0,
    and each station's clicks are read off its columns once at the end.
    """
    ensure_valid(model)
    if not 0.0 <= detection_rate <= 1.0:
        raise BellsimError("detection_rate must be within [0, 1]")
    n_b = len(model.settings_b)
    samplers = [_PairSampler(model, sp) for sp in model.pairs()]    # by code x·|B| + y
    fast = all(s.fast for s in samplers)
    # Callable responses read a block drawn after the matrix; frozen datasets fix that order.
    tables = all(isinstance(r, ResponseTable) for responses in (model.responses_a,
                 model.responses_b) for r in (responses or {}).values())
    n = schedule.n_windows
    # Per station: the outcome and the setting code of every window.
    columns = [(np.zeros(n, np.int8), np.empty(n, _code_dtype(len(labels))))
               for labels in (model.settings_a, model.settings_b)]

    def build(chunk_index, start, stop):
        gen, u, xs, ys = _draw_chunk(model, schedule.rule, master_seed, chunk_index, start, stop)
        code = xs.astype(np.intp)
        code *= n_b
        code += ys
        (a, x), (b, y) = ((outcome[start:stop], setting[start:stop])
                          for outcome, setting in columns)
        x[:], y[:] = xs, ys
        if fast:
            uniforms = (u.T[_COL_SOURCE:_COL_INST_B + 1] if tables
                        else gen.random((stop - start, len(samplers[0].spaces))).T)
            for pair_code, sampler in enumerate(samplers):
                mask = code == pair_code
                if mask.any():
                    a[mask], b[mask] = sampler.outcomes_from_uniforms(
                        *(column[mask] for column in uniforms))
        else:
            # Sampler-backed spaces draw from the generator sequentially, in
            # window order, after the uniform matrix.
            for i, pair_code in enumerate(code.tolist()):
                ai, bi = samplers[pair_code].draw(gen, 1)
                a[i], b[i] = ai[0], bi[0]
        a[u[:, _COL_THIN_A] >= detection_rate] = 0
        b[u[:, _COL_THIN_B] >= detection_rate] = 0

    _rng.map_chunks(build, n, workers=workers)
    streams = []
    for (outcome, setting), station, labels in zip(columns, "AB",
                                                    (model.settings_a, model.settings_b)):
        i = np.flatnonzero(outcome)
        value, setting = outcome[i], setting[i]
        i *= schedule.window_ns                 # window indices to click times
        streams.append(ClickStream(station, i, setting, value, labels))
    return tuple(streams)


# --------------------------------------------------------------------------
# Pairing


def _first_clicks(stream: ClickStream, window_ns: int):
    """The occupied bins of one stream, in order, with the kept click's
    setting code and value per bin and the number of dropped clicks.

    Only bins that hold more than one click are sorted and scanned for
    conflicts; a stream with one click per bin comes back as its own
    columns.  Raises UnsortedStream, and SettingConflict for the stream's
    first bin; a conflict in a later bin comes back as ``(bin before it,
    exception)`` so that the caller can raise it in scan order.
    """
    t = stream.t
    back = np.flatnonzero(t[1:] < t[:-1])
    if back.size:
        i = back[0]
        raise UnsortedStream(f"station {stream.station}: timestamp {t[i + 1]} after {t[i]}")
    if len(t) and t[0] < 0:
        raise BellsimError(f"station {stream.station}: negative timestamp {t[0]}")
    bin_of = t // window_ns
    shared = bin_of[1:] == bin_of[:-1]      # click i + 1 is in click i's bin
    if not shared.any():
        return bin_of, stream.setting, stream.value, 0, None
    first = np.ones(len(t), dtype=bool)
    first[1:] = ~shared
    kept = np.flatnonzero(first)        # each bin's first click, until replaced below
    bins = bin_of[kept]
    # The clicks of bins with more than one, and where each such bin starts
    # among them; t is sorted, so these bins stay contiguous.
    crowded = np.zeros(len(t), dtype=bool)
    crowded[1:] = shared
    crowded[:-1] |= shared
    members = np.flatnonzero(crowded)
    heads = np.flatnonzero(first[members])
    where = np.searchsorted(kept, members[heads])       # their indices among all bins
    order = np.lexsort((stream.value[members], t[members]))     # earliest, ties by value
    kept[where] = members[order[heads]]
    settings = stream.setting[members]
    conflicts = np.flatnonzero(np.minimum.reduceat(settings, heads)
                               != np.maximum.reduceat(settings, heads))
    pending = None
    if conflicts.size:
        c = int(conflicts[0])
        j = int(where[c])
        stop = heads[c + 1] if c + 1 < len(heads) else len(members)
        codes = np.unique(settings[heads[c]:stop]).tolist()
        conflict = SettingConflict(
            f"station {stream.station}, window {bins[j]}: "
            f"settings {list(_label_order(stream.labels[code] for code in codes))}")
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
    schedule that contradicts an actual click raises SettingConflict; a
    click before time 0 or past the schedule's last window raises
    BellsimError.

    Errors surface in the order a scan through the bins meets them: each
    stream's order and first bin are checked up front, a station's next
    bin when the scan passes its current one, and the schedule of a bin
    after that.
    """
    window_ns = _check_width(window_ns)
    labels_a, labels_b = stream_a.labels, stream_b.labels
    if settings is not None:
        # The schedule's labels, as codes into the stream's labels extended
        # by those the streams lack; the record codes fit the extended labels.
        codes_a, labels_a = _codes(settings.settings_a, labels_a)
        codes_b, labels_b = _codes(settings.settings_b, labels_b)
    bins_a, set_a, val_a, dropped_a, pending_a = _first_clicks(stream_a, window_ns)
    bins_b, set_b, val_b, dropped_b, pending_b = _first_clicks(stream_b, window_ns)
    # The union of the occupied bins: one sort in place, one mask of firsts.
    both = np.concatenate((bins_a, bins_b))
    both.sort()
    firsts = np.empty(len(both), dtype=bool)
    firsts[:1] = True
    np.not_equal(both[1:], both[:-1], out=firsts[1:])
    windows = both[firsts]
    del both, firsts
    # Where each station's bins go among the windows; a station's bins are
    # let go as soon as its positions are known, before the records exist.
    pos_a = np.searchsorted(windows, bins_a)
    del bins_a
    pos_b = np.searchsorted(windows, bins_b)
    del bins_b
    n = len(windows)
    x = np.full(n, -1, dtype=_code_dtype(len(labels_a)))
    y = np.full(n, -1, dtype=_code_dtype(len(labels_b)))
    a = np.zeros(n, dtype=np.int8)
    b = np.zeros(n, dtype=np.int8)
    x[pos_a], a[pos_a] = set_a, val_a
    y[pos_b], b[pos_b] = set_b, val_b
    del pos_a, pos_b
    errors = []     # ((window, order within the window's scan step), exception)
    for order, pending in enumerate((pending_a, pending_b)):
        if pending is not None:
            errors.append(((pending[0], order), pending[1]))
    if settings is not None:
        inside = int(np.searchsorted(windows, len(settings)))    # windows the schedule covers
        if inside < n:
            k = int(windows[inside])
            station = "A" if a[inside] else "B"
            errors.append(((k, 2), BellsimError(
                f"station {station}, window {k}: past the schedule's {len(settings)} windows")))
        covered = windows[:inside]
        # Per station: the schedule's setting of each covered window, checked
        # against the clicks and written into the silent slots in place.
        for order, column, codes, scheduled, labels, station in (
                (2, x, codes_a, settings.x, labels_a, "A"),
                (3, y, codes_b, settings.y, labels_b, "B")):
            clicked = column[:inside]
            sched = codes[scheduled[covered]]
            found = _schedule_conflict(covered, clicked, sched, labels, station)
            if found is not None:
                errors.append(((found[0], order), found[1]))
            np.copyto(clicked, sched, where=clicked < 0)
            del sched
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    records = CoincidenceRecords(windows, x, y, a, b, labels_a, labels_b)
    return PairingResult(records=records, dropped_a=dropped_a, dropped_b=dropped_b)


# --------------------------------------------------------------------------
# File formats


def ingest_timetag_file(path, station: str = "A") -> ClickStream:
    """Read a time-tag file: ``timestamp_ns<TAB>setting<TAB>outcome`` per
    line, ``#`` comments, outcomes +1 or -1.  Any whitespace separates the
    fields.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (``textio._lines``)
    and errors name the line counted that way."""
    path = Path(path)
    times, settings, values = [], [], []
    last_t = None
    for line_number, content in _lines(_read_ascii(path)):
        fields = content.split()
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


def _line_blocks(heads: np.ndarray, columns, tail):
    """The text of one line per entry of ``heads``, a block of ``CHUNK``
    lines at a time: the entry's ``str`` followed by ``tail(*values)``.
    ``columns`` holds ``(codes, values)`` pairs, and a line's values are
    ``values[code]`` of each pair.  ``tail`` runs once per combination of
    values, not once per line, and before this returns."""
    dims = [len(values) for _, values in columns]
    codes = np.ravel_multi_index([c for c, _ in columns], dims)
    tails = _label_array([tail(*combination)
                          for combination in product(*(values for _, values in columns))])

    def block(start):
        lines = slice(start, start + _rng.CHUNK)
        parts = [None] * (2 * len(codes[lines]))
        parts[0::2] = map(str, heads[lines].tolist())
        parts[1::2] = tails[codes[lines]].tolist()
        return "".join(parts)

    return map(block, range(0, len(heads), _rng.CHUNK))


def write_timetag_file(stream: ClickStream, path) -> None:
    """A time-tag file of ``stream``; each setting is written as
    ``textio._label_text`` writes it for a time-tag file."""
    texts = tuple(_label_text(label, "time-tag") for label in stream.labels)
    blocks = _line_blocks(stream.t, ((stream.setting, texts),
                                     (stream.value + 1, VALID_OUTCOMES)), "\t{}\t{:+d}\n".format)
    with Path(path).open("w", encoding="ascii") as fh:
        fh.write(f"# station {stream.station}: timestamp_ns setting outcome\n")
        fh.writelines(blocks)


def write_coincidence_csv(records, path) -> None:
    """CSV with header ``window,x,y,a,b``; unknown settings are empty fields.
    Everything after the window field is rendered by ``csv.writer``, once
    per combination of settings and outcomes, so quoting and line ends are
    its own; each setting is written as ``textio._label_text`` writes it
    for a CSV file."""
    r = CoincidenceRecords.of(records)
    texts_a, texts_b = (tuple(_label_text(label, "CSV") for label in labels)
                        for labels in (r.settings_a, r.settings_b))
    buf = io.StringIO()
    row_writer = csv.writer(buf)

    def tail(*fields):
        buf.seek(0)
        buf.truncate()
        row_writer.writerow(("", *fields))
        return buf.getvalue()

    # Code -1, an unknown setting, picks the empty field in front of the labels.
    blocks = _line_blocks(r.window, ((np.add(r.x, 1, dtype=np.intp), ("",) + texts_a),
                                     (np.add(r.y, 1, dtype=np.intp), ("",) + texts_b),
                                     (r.a + 1, VALID_OUTCOMES), (r.b + 1, VALID_OUTCOMES)), tail)
    with Path(path).open("w", newline="", encoding="ascii") as fh:
        csv.writer(fh).writerow(["window", "x", "y", "a", "b"])
        fh.writelines(blocks)


def read_coincidence_csv(path) -> CoincidenceRecords:
    """Read a CSV that ``write_coincidence_csv`` wrote.  An error names the
    csv module's physical line, whose lines end as in ``textio._lines``."""
    path = Path(path)
    rows = []
    reader = csv.reader(io.StringIO(_read_ascii(path), newline=""))
    try:
        header = next(reader, None)
        if header != ["window", "x", "y", "a", "b"]:
            raise ParseError("bad header, expected window,x,y,a,b",
                             line_number=1, path=str(path))
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}",
                                 line_number=reader.line_num, path=str(path))
            try:
                window = int(row[0])
                a = int(row[3])
                b = int(row[4])
            except ValueError:
                raise ParseError("bad integer field",
                                 line_number=reader.line_num, path=str(path)) from None
            if not -_INT64 <= window < _INT64:
                raise ParseError(f"window {window} out of range",
                                 line_number=reader.line_num, path=str(path))
            if a not in (-1, 0, 1) or b not in (-1, 0, 1) or (a == 0 and b == 0):
                raise ParseError(f"bad outcome pair ({row[3]}, {row[4]})",
                                 line_number=reader.line_num, path=str(path))
            rows.append((window, None if row[1] == "" else _decode_label(row[1]),
                         None if row[2] == "" else _decode_label(row[2]), a, b))
    except csv.Error as exc:
        raise ParseError(str(exc), line_number=reader.line_num, path=str(path)) from None
    return CoincidenceRecords.from_rows(rows)
