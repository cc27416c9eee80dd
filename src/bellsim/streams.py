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
schedule via ``settings_hint``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import rng as _rng
from .core import ExperimentModel, ModelVariant, SettingPair, _PairSampler, ensure_valid
from .errors import (
    BellsimError,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from .modelio import _decode_label


class ClickEvent(NamedTuple):
    t: int            # nanoseconds, non-negative
    setting: object   # local setting label active at the click
    value: int        # +1 or -1; "no click" is the absence of an event


@dataclass(frozen=True)
class ClickStream:
    station: str      # "A" or "B"
    events: tuple

    def __len__(self):
        return len(self.events)


class CoincidenceRecord(NamedTuple):
    window: int
    sp: SettingPair   # components may be None when ingested data is silent
    a: int
    b: int


@dataclass(frozen=True)
class PairingResult:
    records: list
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


def schedule_settings(model: ExperimentModel, schedule: Schedule,
                      master_seed: int) -> list[SettingPair]:
    """The setting pair of every window, recomputable without generating."""
    n = schedule.n_windows
    out: list[SettingPair] = [None] * n

    def fill(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
        u = gen.random((_rng.CHUNK, 7))[: stop - start]
        idx = np.arange(start, stop, dtype=np.int64)
        xs, ys = _setting_indices(model, schedule.rule, idx, u[:, 0], u[:, 1])
        for i in range(stop - start):
            out[start + i] = SettingPair(model.settings_a[xs[i]], model.settings_b[ys[i]])

    _rng.map_chunks(fill, n)
    return out


# --------------------------------------------------------------------------
# Generation

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


def generate_streams(model: ExperimentModel, schedule: Schedule,
                     detection_rate: float, master_seed: int,
                     workers: int = 1) -> tuple[ClickStream, ClickStream]:
    """Simulate both stations' click streams for a schedule.

    Per window: the rule picks settings, one trial is sampled, outcome 0
    emits no click, and surviving clicks are independently thinned with
    probability ``1 - detection_rate``.  Events are stamped at the window
    start.  Results are bit-identical for any ``workers`` count.
    """
    ensure_valid(model)
    if not 0.0 <= detection_rate <= 1.0:
        raise BellsimError("detection_rate must be within [0, 1]")
    samplers = {sp: _PairSampler(model, sp) for sp in model.pairs()}
    fast = all(s.fast or s.variant is ModelVariant.QUANTUM for s in samplers.values())
    n = schedule.n_windows
    w = schedule.window_ns

    def build(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
        m = stop - start
        # Full-chunk draw, sliced: window values must not depend on where
        # the schedule ends.
        u = gen.random((_rng.CHUNK, 7))[:m]
        idx = np.arange(start, stop, dtype=np.int64)
        xs, ys = _setting_indices(model, schedule.rule, idx,
                                  u[:, _COL_SETTING_A], u[:, _COL_SETTING_B])
        a = np.zeros(m, dtype=np.int8)
        b = np.zeros(m, dtype=np.int8)
        if fast:
            code = xs * len(model.settings_b) + ys
            for sp, sampler in samplers.items():
                pair_code = (model.settings_a.index(sp.x) * len(model.settings_b)
                             + model.settings_b.index(sp.y))
                mask = code == pair_code
                if not mask.any():
                    continue
                a[mask], b[mask] = sampler.outcomes_from_uniforms(
                    u[mask, _COL_SOURCE], u[mask, _COL_INST_A], u[mask, _COL_INST_B])
        else:
            # Sampler-backed spaces draw from the generator sequentially, in
            # window order, after the uniform matrix.
            for i in range(m):
                sp = SettingPair(model.settings_a[xs[i]], model.settings_b[ys[i]])
                ai, bi = samplers[sp].draw(gen, 1)
                a[i], b[i] = ai[0], bi[0]
        keep_a = (a != 0) & (u[:, _COL_THIN_A] < detection_rate)
        keep_b = (b != 0) & (u[:, _COL_THIN_B] < detection_rate)
        ev_a = [ClickEvent(int((start + i) * w), model.settings_a[xs[i]], int(a[i]))
                for i in np.flatnonzero(keep_a)]
        ev_b = [ClickEvent(int((start + i) * w), model.settings_b[ys[i]], int(b[i]))
                for i in np.flatnonzero(keep_b)]
        return ev_a, ev_b

    parts = _rng.map_chunks(build, n, workers=workers)
    events_a = [e for part_a, _ in parts for e in part_a]
    events_b = [e for _, part_b in parts for e in part_b]
    return (ClickStream("A", tuple(events_a)), ClickStream("B", tuple(events_b)))


# --------------------------------------------------------------------------
# Pairing


def _binned(stream: ClickStream, window_ns: int):
    """Yield (bin, kept_event, dropped_count) in bin order; enforces ordering
    and per-bin setting agreement."""
    last_t = None
    for e in stream.events:
        if last_t is not None and e.t < last_t:
            raise UnsortedStream(f"station {stream.station}: timestamp {e.t} after {last_t}")
        last_t = e.t
    for bin_index, group in groupby(stream.events, key=lambda e: e.t // window_ns):
        group = list(group)
        settings = {e.setting for e in group}
        if len(settings) > 1:
            conflict = SettingConflict(f"station {stream.station}, window {bin_index}: "
                                       f"settings {sorted(map(str, settings))}")
            conflict.station = stream.station
            raise conflict
        kept = min(group, key=lambda e: (e.t, e.value))
        yield int(bin_index), kept, len(group) - 1


def pair_coincidences(stream_a: ClickStream, stream_b: ClickStream, window_ns: int,
                      settings_hint: "Callable[[int], SettingPair] | None" = None
                      ) -> PairingResult:
    """Convert two click streams into per-window outcome records.

    ``settings_hint(window)`` can supply the active setting pair for
    windows where a station was silent (the generator's schedule knows it;
    ingested data does not, and those slots stay None).  A hint that
    contradicts an actual click raises SettingConflict.
    """
    if window_ns <= 0:
        raise BellsimError("window width must be positive")
    records = []
    dropped_a = 0
    dropped_b = 0
    it_a = _binned(stream_a, window_ns)
    it_b = _binned(stream_b, window_ns)
    cur_a = next(it_a, None)
    cur_b = next(it_b, None)
    while cur_a is not None or cur_b is not None:
        ka = cur_a[0] if cur_a is not None else None
        kb = cur_b[0] if cur_b is not None else None
        k = min(v for v in (ka, kb) if v is not None)
        ev_a = ev_b = None
        if ka == k:
            _, ev_a, d = cur_a
            dropped_a += d
            cur_a = next(it_a, None)
        if kb == k:
            _, ev_b, d = cur_b
            dropped_b += d
            cur_b = next(it_b, None)
        hint = settings_hint(k) if settings_hint is not None else (None, None)
        x = ev_a.setting if ev_a is not None else hint[0]
        y = ev_b.setting if ev_b is not None else hint[1]
        if ev_a is not None and hint[0] is not None and ev_a.setting != hint[0]:
            raise SettingConflict(f"window {k}: station A clicked at setting "
                                  f"{ev_a.setting!r} but the schedule says {hint[0]!r}")
        if ev_b is not None and hint[1] is not None and ev_b.setting != hint[1]:
            raise SettingConflict(f"window {k}: station B clicked at setting "
                                  f"{ev_b.setting!r} but the schedule says {hint[1]!r}")
        records.append(CoincidenceRecord(
            window=k,
            sp=SettingPair(x, y),
            a=ev_a.value if ev_a is not None else 0,
            b=ev_b.value if ev_b is not None else 0,
        ))
    return PairingResult(records=records, dropped_a=dropped_a, dropped_b=dropped_b)


# --------------------------------------------------------------------------
# File formats


def ingest_timetag_file(path, station: str = "A") -> ClickStream:
    """Read a time-tag file: ``timestamp_ns<TAB>setting<TAB>outcome`` per
    line, ``#`` comments, outcomes +1 or -1.  Any whitespace separates the
    fields."""
    path = Path(path)
    events = []
    last_t = None
    with path.open("r", encoding="ascii") as fh:
        for line_number, raw in enumerate(fh, start=1):
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
            events.append(ClickEvent(t, _decode_label(fields[1]), value))
    return ClickStream(station=station, events=tuple(events))


def write_timetag_file(stream: ClickStream, path) -> None:
    lines = [f"# station {stream.station}: timestamp_ns setting outcome"]
    for e in stream.events:
        lines.append(f"{e.t}\t{e.setting}\t{e.value:+d}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_coincidence_csv(records, path) -> None:
    """CSV with header ``window,x,y,a,b``; unknown settings are empty fields."""
    with Path(path).open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "x", "y", "a", "b"])
        for r in records:
            writer.writerow([
                r.window,
                "" if r.sp.x is None else r.sp.x,
                "" if r.sp.y is None else r.sp.y,
                r.a,
                r.b,
            ])


def read_coincidence_csv(path) -> list[CoincidenceRecord]:
    path = Path(path)
    records = []
    with path.open("r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
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
            if a not in (-1, 0, 1) or b not in (-1, 0, 1) or (a == 0 and b == 0):
                raise ParseError(f"bad outcome pair ({row[3]}, {row[4]})",
                                 line_number=line_number, path=str(path))
            x = None if row[1] == "" else _decode_label(row[1])
            y = None if row[2] == "" else _decode_label(row[2])
            records.append(CoincidenceRecord(window, SettingPair(x, y), a, b))
    return records
