"""Shared test utilities: independent oracles and random model generators.

The brute-force expectation oracle below recomputes model expectations with
plain float loops straight from the model definition.  It deliberately
shares no code with the package's enumeration engine so the two can check
each other.

Two differential oracles keep earlier implementations alive for comparison
with the per-pair outcome tables the package now computes: a per-record
estimator (one list of values per pair and statistic, two-pass standard
errors) and a Fraction enumerator that visits every term of the lambda
space with eight running sums.  Three more keep the generic table passes
that turned one outcome table into means and standard errors, for
comparison with the closed-form ``core.table_sums``.

Two more keep the event-object stream path for comparison with the
columnar one: a generator that builds one ``ClickEvent`` per click, and a
pairer that walks both event lists bin by bin with ``groupby``.  Three
keep the whole-array columnar path as it was before generation wrote its
clicks in place and setting codes were narrowed: a generator that joins
per-chunk parts with ``np.concatenate``, and a schedule and a pairer with
int64 setting codes.  Both generators still draw a model with a
plain-callable response window by window with ``_PairSampler._draw_slow``,
as generation did before every finite model was tabulated.

Four more keep the text readers that each had their own line loop:
model, config, time-tag and coincidence CSV files.  Two keep the text
writers that formatted one whole line per click or record.  The last five
keep the 2x2 bookkeeping that spelled the pair order and the four
no-signalling contrasts out by hand: the no-signalling report, the
coupling's marginal-consistency check, moment system and decision, and
the moments of an explicit joint.

Four keep the exact route's dense loops: the phase-one simplex that
divided and eliminated every tableau entry, the CHSH sums added term by
term, and the outcome and table-totality checks that walked every
outcome and every (source, instrument) key.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from bellsim.core import (
    DiscreteDistribution,
    ExactResult,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SamplerSpace,
)
from bellsim import core as _core
from bellsim import rng as _rng
from bellsim import streams as _streams
from bellsim.core import SettingPair, _PairSampler, ensure_valid
from bellsim.coupling import (
    ATOMS,
    MOMENT_TOL,
    CouplingResult,
    JointSpec,
    chsh_statistics,
    pairwise_realizability,
)
from bellsim.estimators import (
    RAW,
    CorrelationSet,
    MarginalDelta,
    NoSignallingReport,
    PairStats,
    _four_pairs,
)
from bellsim.cli import ConfigError
from bellsim.errors import (
    BellsimError,
    EmptyCell,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from bellsim.modelio import _decode_label
from bellsim.streams import ClickStream, CoincidenceRecord, CoincidenceRecords
from bellsim.textio import _label_text


def brute_force_expectations(model, sp):
    """Float-arithmetic reference for raw and post-selected expectations.

    Returns a dict with raw/postselected e_ab, e_a, e_b and c_xy."""
    x, y = sp
    resp_a = model.responses_a[x]
    resp_b = model.responses_b[y]
    terms = []
    if model.variant is ModelVariant.M3:
        joint = model.instruments_joint[SettingPair(x, y)]
        for (l1, l2), p_src in zip(model.source.atoms, model.source.float_probs()):
            for (lx, ly), p_j in zip(joint.atoms, joint.float_probs()):
                terms.append((p_src * p_j, resp_a(l1, lx), resp_b(l2, ly)))
    else:
        inst_a = model.instruments_a[x]
        inst_b = model.instruments_b[y]
        for (l1, l2), p_src in zip(model.source.atoms, model.source.float_probs()):
            for lx, p_x in zip(inst_a.atoms, inst_a.float_probs()):
                for ly, p_y in zip(inst_b.atoms, inst_b.float_probs()):
                    terms.append((p_src * p_x * p_y, resp_a(l1, lx), resp_b(l2, ly)))
    total = sum(w for w, _, _ in terms)
    raw_ab = sum(w * a * b for w, a, b in terms) / total
    raw_a = sum(w * a for w, a, _ in terms) / total
    raw_b = sum(w * b for w, _, b in terms) / total
    kept = [(w, a, b) for w, a, b in terms if a != 0 and b != 0]
    c = sum(w for w, _, _ in kept) / total
    out = {"raw": (raw_ab, raw_a, raw_b), "c_xy": c}
    if kept:
        ksum = sum(w for w, _, _ in kept)
        out["postselected"] = (
            sum(w * a * b for w, a, b in kept) / ksum,
            sum(w * a for w, a, _ in kept) / ksum,
            sum(w * b for w, _, b in kept) / ksum,
        )
    return out


def random_lhvm_model(generator, max_source_atoms=12):
    """Random classical model: +-1 response tables, independent instrument
    noise, arbitrary source correlations."""
    k = int(generator.integers(2, max_source_atoms + 1))
    atoms = [(i, i + 100) for i in range(k)]
    weights = generator.random(k)
    source = DiscreteDistribution(atoms, weights / weights.sum())
    settings = (1, 2)
    instruments = {}
    for station in ("A", "B"):
        for s in settings:
            m = int(generator.integers(1, 4))
            w = generator.random(m)
            instruments[(station, s)] = DiscreteDistribution(range(m), w / w.sum())
    responses_a = {}
    responses_b = {}
    for s in settings:
        inst = instruments[("A", s)]
        responses_a[s] = ResponseTable({
            (a[0], i): int(generator.choice((-1, 1)))
            for a in atoms for i in inst.atoms})
        inst = instruments[("B", s)]
        responses_b[s] = ResponseTable({
            (a[1], i): int(generator.choice((-1, 1)))
            for a in atoms for i in inst.atoms})
    return ExperimentModel(ModelVariant.LHVM, settings, settings, source=source,
                           instruments_a={s: instruments[("A", s)] for s in settings},
                           instruments_b={s: instruments[("B", s)] for s in settings},
                           responses_a=responses_a, responses_b=responses_b, name="random-lhvm")


def sampler_model():
    """A model with a sampler-backed source and callable responses, so
    every trial is drawn and evaluated one space at a time."""
    source = SamplerSpace(lambda g, n: [(int(v), int(v)) for v in g.integers(0, 3, n)])
    inst = {s: DiscreteDistribution.uniform([0, 1]) for s in (1, 2)}
    resp = {s: (lambda lam, i, s=s: (-1, 0, 1)[(lam + i * s) % 3]) for s in (1, 2)}
    return ExperimentModel(ModelVariant.M1, (1, 2), (1, 2), source=source, instruments_a=inst,
                           instruments_b=dict(inst), responses_a=resp, responses_b=dict(resp))


def callable_response_model():
    """An m3 model over finite tables whose responses are plain callables.
    The package tabulates them on the finite path; the oracles in this
    module still call them on the per-element path, one draw at a time."""
    source = DiscreteDistribution([(0, 1), (1, 0), (2, 2)], [Fraction(1, 2), Fraction(1, 3),
                                                             Fraction(1, 6)])
    joint = {(x, y): DiscreteDistribution([(0, 0), (0, 1), (1, 1)],
                                          [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
             for x in ("u", "v") for y in (1, 2)}
    resp_a = {s: (lambda lam, i, s=s: (-1, 0, 1)[(lam + i + len(s)) % 3]) for s in ("u", "v")}
    resp_b = {s: (lambda lam, i, s=s: (1, -1)[(lam * s + i) % 2]) for s in (1, 2)}
    return ExperimentModel(ModelVariant.M3, ("u", "v"), (1, 2), source=source,
                           instruments_joint=joint, responses_a=resp_a, responses_b=resp_b)


def record_rows(sp, outcome_pairs):
    """``(window, x, y, a, b)`` rows of one setting pair, windows from 0."""
    x, y = sp
    return [(i, x, y, int(a), int(b)) for i, (a, b) in enumerate(outcome_pairs)]


def records_from_arrays(sp, a, b):
    return CoincidenceRecords.from_rows(record_rows(sp, zip(a, b)))


def make_records(sp, outcome_pairs):
    return CoincidenceRecords.from_rows(record_rows(sp, outcome_pairs))


def mc_tolerance(se, floor=1e-12):
    """Five standard errors with a tiny absolute floor for exact cases."""
    return 5.0 * float(se) + floor


def sample_standard_error(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=0) / np.sqrt(len(values)))


def count_validations(monkeypatch) -> list:
    """Record each model that ``core.validate_model`` is called on from now
    until the test ends."""
    seen = []
    validate = _core.validate_model

    def counting(model):
        seen.append(model)
        return validate(model)

    monkeypatch.setattr(_core, "validate_model", counting)
    return seen


# --------------------------------------------------------------------------
# Differential oracles


def _oracle_mean_se(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var / n)


def oracle_label_order(labels) -> tuple:
    """The distinct labels in canonical order: ints numerically, then
    strings, then the rest by ``repr``; None is left out."""
    labels = [label for label in dict.fromkeys(labels) if label is not None]
    ints = sorted(label for label in labels if isinstance(label, numbers.Integral))
    strings = sorted(label for label in labels if isinstance(label, str))
    rest = sorted((label for label in labels if not isinstance(label, (numbers.Integral, str))),
                  key=repr)
    return tuple(ints + strings + rest)


def oracle_records(rows) -> CoincidenceRecords:
    """Records of ``(window, x, y, a, b)`` rows, setting labels in
    canonical order, coded with Python lists."""
    rows = list(rows)
    settings_a = oracle_label_order(row[1] for row in rows)
    settings_b = oracle_label_order(row[2] for row in rows)

    def column(values, dtype=np.int64):
        return np.array(list(values), dtype=dtype)

    return CoincidenceRecords(
        column(row[0] for row in rows),
        column(-1 if row[1] is None else settings_a.index(row[1]) for row in rows),
        column(-1 if row[2] is None else settings_b.index(row[2]) for row in rows),
        column((row[3] for row in rows), np.int8), column((row[4] for row in rows), np.int8),
        settings_a, settings_b)


def oracle_estimate(records, conditioning):
    """Per-record estimator: raw or post-selected statistics per setting pair.

    Settings follow the label order of the ``CoincidenceRecords``, keeping
    the labels that occur in a known pair.  Groups records by pair in that
    order and averages Python lists; raises EmptyCell like the package's
    estimators.
    """
    labels_a, labels_b = records.settings_a, records.settings_b
    groups = {}
    skipped = 0
    for r in records:
        if r.sp.x is None or r.sp.y is None:
            skipped += 1
            continue
        groups.setdefault(SettingPair(*r.sp), []).append(r)
    if not groups:
        raise EmptyCell("no records with a known setting pair")
    order_a = tuple(x for x in labels_a if any(sp.x == x for sp in groups))
    order_b = tuple(y for y in labels_b if any(sp.y == y for sp in groups))
    out = {}
    for sp in [SettingPair(x, y) for x in order_a for y in order_b if (x, y) in groups]:
        group = groups[sp]
        survivors = [r for r in group if r.a * r.b != 0]
        used = group if conditioning == RAW else survivors
        if not used:
            raise EmptyCell(f"no record with both outcomes non-zero for pair {tuple(sp)}")
        e_ab, se_ab = _oracle_mean_se([r.a * r.b for r in used])
        e_a, se_a = _oracle_mean_se([r.a for r in used])
        e_b, se_b = _oracle_mean_se([r.b for r in used])
        out[sp] = PairStats(e_ab, e_a, e_b, len(group), len(survivors),
                            len(survivors) / len(group), se_ab, se_a, se_b)
    return CorrelationSet(order_a, order_b, out, conditioning, skipped)


def _oracle_terms(model, sp):
    """``(weight, a, b)`` for every (source, instrument) term of one pair."""
    sp = SettingPair(*sp)
    resp_a = model.responses_a[sp.x]
    resp_b = model.responses_b[sp.y]
    terms = []
    if model.variant is ModelVariant.M3:
        for (l1, l2), p_src in model.source.items():
            for (lx, ly), p_i in model.instruments_joint[sp].items():
                terms.append((p_src * p_i, resp_a(l1, lx), resp_b(l2, ly)))
    else:
        for (l1, l2), p_src in model.source.items():
            for lx, p_x in model.instruments_a[sp.x].items():
                for ly, p_y in model.instruments_b[sp.y].items():
                    terms.append((p_src * p_x * p_y, resp_a(l1, lx), resp_b(l2, ly)))
    return terms


def oracle_table(model, sp):
    """P(a, b | x, y) indexed ``[a + 1][b + 1]``, a Fraction sum term by term."""
    table = [[Fraction(0)] * 3 for _ in range(3)]
    for w, a, b in _oracle_terms(model, sp):
        table[a + 1][b + 1] += w
    return table


def oracle_enumerate(model, sp):
    """Fraction enumeration over every (source, instrument) term of one pair.

    Returns ``(raw, postselected)`` ExactResults; ``postselected`` is None
    when no term has both outcomes non-zero.
    """
    terms = _oracle_terms(model, sp)
    total = s_ab = s_a = s_b = Fraction(0)
    sel = sel_ab = sel_a = sel_b = Fraction(0)
    for w, a, b in terms:
        total += w
        s_ab += w * a * b
        s_a += w * a
        s_b += w * b
        if a != 0 and b != 0:
            sel += w
            sel_ab += w * a * b
            sel_a += w * a
            sel_b += w * b
    raw = ExactResult(s_ab / total, s_a / total, s_b / total, sel / total)
    if sel == 0:
        return raw, None
    return raw, ExactResult(sel_ab / sel, sel_a / sel, sel_b / sel, sel / total)


# The generic table passes that computed every per-pair statistic before
# ``core.table_sums``: one weighted sum over the nine cells per statistic,
# and two more per statistic for its standard error.  Integer tables give
# integer sums and Fraction tables exact rational sums.

_ORACLE_CELLS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))

# The three reported statistics of a trial, in report order: A*B, A, B.
ORACLE_STATISTICS = (lambda a, b: a * b, lambda a, b: a, lambda a, b: b)


def oracle_table_sum(table, f, post=False):
    """Sum of ``table[a+1][b+1] * f(a, b)``; with ``post`` only over cells
    where both outcomes are non-zero."""
    return sum(table[a + 1][b + 1] * f(a, b) for a, b in _ORACLE_CELLS if not post or a * b)


class OracleTableStats(NamedTuple):
    raw: tuple            # (e_ab, e_a, e_b) over every trial, zeros kept
    post: "tuple | None"  # the same over trials with A*B != 0; None if there are none
    c: object             # n_post / n_raw
    n_raw: object
    n_post: object


def oracle_table_stats(table) -> OracleTableStats:
    """Raw and post-selected means of one outcome table: floats on integer
    counts, exact rationals on Fraction weights."""
    one = lambda a, b: 1  # noqa: E731
    n_raw = oracle_table_sum(table, one)
    n_post = oracle_table_sum(table, one, post=True)
    raw = tuple(oracle_table_sum(table, f) / n_raw for f in ORACLE_STATISTICS)
    post = (tuple(oracle_table_sum(table, f, post=True) / n_post for f in ORACLE_STATISTICS)
            if n_post else None)
    return OracleTableStats(raw, post, n_post / n_raw, n_raw, n_post)


def oracle_standard_error(table, f, post, n):
    """Plug-in standard error of a mean from exact integer sums,
    sqrt((n * sum(v^2) - sum(v)^2) / n^3)."""
    s = oracle_table_sum(table, f, post)
    s2 = oracle_table_sum(table, lambda a, b: f(a, b) ** 2, post)
    return math.sqrt((n * s2 - s * s) / n ** 3)


# --------------------------------------------------------------------------
# Event-object stream oracles


class ClickEvent(NamedTuple):
    t: int            # nanoseconds, non-negative
    setting: object   # local setting label active at the click
    value: int        # +1 or -1; "no click" is the absence of an event


@dataclass(frozen=True)
class EventStream:
    station: str      # "A" or "B"
    events: tuple

    def __len__(self):
        return len(self.events)


def events(stream):
    """The clicks of a columnar ``ClickStream`` as a list of ClickEvents."""
    labels = [stream.labels[c] for c in stream.setting.tolist()]
    return [ClickEvent(*e) for e in zip(stream.t.tolist(), labels, stream.value.tolist())]


def columnar(stream: EventStream) -> ClickStream:
    """The same clicks as a columnar ``ClickStream``."""
    labels = tuple(dict.fromkeys(e.setting for e in stream.events))
    return ClickStream(stream.station, [e.t for e in stream.events],
                       [labels.index(e.setting) for e in stream.events],
                       [e.value for e in stream.events], labels)


def _oracle_reads_matrix(model) -> bool:
    """The oracles' own branch rule: a quantum model, or a finite model whose
    responses are all tables, reads the uniform matrix; any other model is
    drawn window by window, each response called per element."""
    responses = [*(model.responses_a or {}).values(), *(model.responses_b or {}).values()]
    return model.is_finite() and all(isinstance(r, ResponseTable) for r in responses)


def oracle_generate_streams(model, schedule, detection_rate, master_seed, workers=1):
    """Both stations' clicks, one ClickEvent per click, from the same chunk
    draws as ``generate_streams``."""
    ensure_valid(model)
    if not 0.0 <= detection_rate <= 1.0:
        raise BellsimError("detection_rate must be within [0, 1]")
    samplers = {sp: _PairSampler(model, sp) for sp in model.pairs()}
    fast = _oracle_reads_matrix(model)
    n = schedule.n_windows
    w = schedule.window_ns

    def build(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
        m = stop - start
        u = gen.random((_rng.CHUNK, 7))[:m]
        idx = np.arange(start, stop, dtype=np.int64)
        xs, ys = _streams._setting_indices(model, schedule.rule, idx, u[:, 0], u[:, 1])
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
                    u[mask, 2], u[mask, 3], u[mask, 4])
        else:
            for i in range(m):
                sp = SettingPair(model.settings_a[xs[i]], model.settings_b[ys[i]])
                ai, bi = samplers[sp]._draw_slow(gen, 1)
                a[i], b[i] = ai[0], bi[0]
        keep_a = (a != 0) & (u[:, 5] < detection_rate)
        keep_b = (b != 0) & (u[:, 6] < detection_rate)
        ev_a = [ClickEvent(int((start + i) * w), model.settings_a[xs[i]], int(a[i]))
                for i in np.flatnonzero(keep_a)]
        ev_b = [ClickEvent(int((start + i) * w), model.settings_b[ys[i]], int(b[i]))
                for i in np.flatnonzero(keep_b)]
        return ev_a, ev_b

    parts = _rng.map_chunks(build, n, workers=workers)
    events_a = [e for part_a, _ in parts for e in part_a]
    events_b = [e for _, part_b in parts for e in part_b]
    return (EventStream("A", tuple(events_a)), EventStream("B", tuple(events_b)))


def _oracle_binned(stream, window_ns):
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
                                       f"settings {list(oracle_label_order(settings))}")
            conflict.station = stream.station
            raise conflict
        kept = min(group, key=lambda e: (e.t, e.value))
        yield int(bin_index), kept, len(group) - 1


def oracle_pair_coincidences(stream_a, stream_b, window_ns, settings_hint=None):
    """Walk both event lists bin by bin; ``settings_hint(window)`` is called
    per occupied window.  Returns (records, dropped_a, dropped_b)."""
    if window_ns <= 0:
        raise BellsimError("window width must be positive")
    records = []
    dropped_a = 0
    dropped_b = 0
    it_a = _oracle_binned(stream_a, window_ns)
    it_b = _oracle_binned(stream_b, window_ns)
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
    return records, dropped_a, dropped_b


# --------------------------------------------------------------------------
# Whole-array columnar oracles, int64 setting codes


def _oracle_setting_codes(model, rule, start, stop, u):
    """The windows' setting codes, int64, from a chunk's uniform matrix."""
    xs, ys = _streams._setting_indices(model, rule, np.arange(start, stop, dtype=np.int64),
                                       u[:, 0], u[:, 1])
    return np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)


def oracle_columnar_generate_streams(model, schedule, detection_rate, master_seed, workers=1):
    """Both stations' click columns: each chunk returns its own parts, and
    each column is their ``np.concatenate``."""
    ensure_valid(model)
    if not 0.0 <= detection_rate <= 1.0:
        raise BellsimError("detection_rate must be within [0, 1]")
    n_b = len(model.settings_b)
    samplers = [_PairSampler(model, sp) for sp in model.pairs()]    # by code x·|B| + y
    fast = _oracle_reads_matrix(model)
    w = schedule.window_ns

    def build(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
        u = gen.random((_rng.CHUNK, 7))[: stop - start]
        xs, ys = _oracle_setting_codes(model, schedule.rule, start, stop, u)
        code = xs * n_b + ys
        a = np.zeros(stop - start, dtype=np.int8)
        b = np.zeros(stop - start, dtype=np.int8)
        if fast:
            for pair_code, sampler in enumerate(samplers):
                mask = code == pair_code
                if mask.any():
                    a[mask], b[mask] = sampler.outcomes_from_uniforms(
                        u[mask, 2], u[mask, 3], u[mask, 4])
        else:
            for i, pair_code in enumerate(code.tolist()):
                ai, bi = samplers[pair_code]._draw_slow(gen, 1)
                a[i], b[i] = ai[0], bi[0]
        i_a = np.flatnonzero((a != 0) & (u[:, 5] < detection_rate))
        i_b = np.flatnonzero((b != 0) & (u[:, 6] < detection_rate))
        return (start + i_a, xs[i_a], a[i_a]), (start + i_b, ys[i_b], b[i_b])

    parts = _rng.map_chunks(build, schedule.n_windows, workers=workers)
    streams = []
    for station, labels, side in (("A", model.settings_a, 0), ("B", model.settings_b, 1)):
        windows, setting, value = (np.concatenate(c) for c in zip(*(p[side] for p in parts)))
        streams.append(ClickStream(station, windows * w, setting, value, labels))
    return tuple(streams)


def oracle_columnar_schedule(model, schedule, master_seed) -> _streams.WindowSettings:
    """The setting pair of every window, int64 code columns."""

    def columns(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_STREAMS,), chunk_index)
        u = gen.random((_rng.CHUNK, 7))[: stop - start]
        return _oracle_setting_codes(model, schedule.rule, start, stop, u)

    xs, ys = (np.concatenate(c) for c in zip(*_rng.map_chunks(columns, schedule.n_windows)))
    return _streams.WindowSettings(model.settings_a, model.settings_b, xs, ys)


def _oracle_int64_codes(values, labels):
    """Codes of ``values`` in ``labels``, extended by the labels it lacks."""
    index = {label: i for i, label in enumerate(labels)}
    codes = [index.setdefault(v, len(index)) for v in values]
    return np.array(codes, dtype=np.int64), tuple(index)


def oracle_columnar_pair_coincidences(stream_a, stream_b, window_ns, settings=None):
    """``pair_coincidences`` on whole columns with int64 record codes:
    union of the occupied bins, then the schedule's codes into the silent
    slots.  Returns (records, dropped_a, dropped_b); raises the first error
    in scan order."""
    _streams._check_width(window_ns)
    bins_a, set_a, val_a, dropped_a, pending_a = _streams._first_clicks(stream_a, window_ns)
    bins_b, set_b, val_b, dropped_b, pending_b = _streams._first_clicks(stream_b, window_ns)
    windows = np.unique(np.concatenate((bins_a, bins_b)))
    pos_a, pos_b = np.searchsorted(windows, bins_a), np.searchsorted(windows, bins_b)
    n = len(windows)
    x = np.full(n, -1, dtype=np.int64)
    y = np.full(n, -1, dtype=np.int64)
    a = np.zeros(n, dtype=np.int8)
    b = np.zeros(n, dtype=np.int8)
    x[pos_a], a[pos_a] = set_a, val_a
    y[pos_b], b[pos_b] = set_b, val_b
    labels_a, labels_b = stream_a.labels, stream_b.labels
    errors = [((p[0], order), p[1]) for order, p in enumerate((pending_a, pending_b))
              if p is not None]
    if settings is not None:
        inside = int(np.searchsorted(windows, len(settings)))
        if inside < n:
            k = int(windows[inside])
            station = "A" if a[inside] else "B"
            errors.append(((k, 2), BellsimError(
                f"station {station}, window {k}: past the schedule's {len(settings)} windows")))
        covered = windows[:inside]
        codes_a, labels_a = _oracle_int64_codes(settings.settings_a, labels_a)
        codes_b, labels_b = _oracle_int64_codes(settings.settings_b, labels_b)
        for order, column, codes, scheduled, labels, station in (
                (2, x, codes_a, settings.x, labels_a, "A"),
                (3, y, codes_b, settings.y, labels_b, "B")):
            clicked = column[:inside]
            sched = codes[np.asarray(scheduled, dtype=np.int64)[covered]]
            found = _streams._schedule_conflict(covered, clicked, sched, labels, station)
            if found is not None:
                errors.append(((found[0], order), found[1]))
            clicked[clicked < 0] = sched[clicked < 0]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return CoincidenceRecords(windows, x, y, a, b, labels_a, labels_b), dropped_a, dropped_b


# --------------------------------------------------------------------------
# Line-loop text readers
#
# The readers as they were before every text input shared one line reader:
# model and config files broke lines with ``str.splitlines``, time-tag
# files with ``io.StringIO(newline=None)``, and the CSV reader counted rows.
# They agree with the package's readers on ASCII text free of ``\v``,
# ``\f``, ``\x1c``, ``\x1d`` and ``\x1e``, free of quoted line breaks and
# of repeated model sections.


def _oracle_read(path) -> str:
    return Path(path).read_bytes().decode("ascii")


class _OracleReader:
    def __init__(self, text: str, path=None):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0

    def next_tokens(self):
        """Next non-empty, non-comment line as (line_number, tokens)."""
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.pos, stripped.split()
        return None, None

    def fail(self, message, line_number=None):
        raise ParseError(message, line_number=line_number, path=self.path)


def _oracle_read_block(reader, row_width, what):
    rows = []
    while True:
        ln, tokens = reader.next_tokens()
        if tokens is None:
            reader.fail(f"unterminated {what} block (missing 'end')")
        if tokens == ["end"]:
            return rows
        if len(tokens) != row_width:
            reader.fail(f"{what}: expected {row_width} fields, got {len(tokens)}", ln)
        rows.append((ln, tokens))


def _oracle_parse_prob(reader, token, ln):
    try:
        if "_" in token:    # Fraction reads underscores only from Python 3.11 on
            raise ValueError(token)
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        reader.fail(f"bad probability {token!r}", ln)


def _oracle_distribution(reader, atoms, probs, ln, what):
    if not atoms:
        reader.fail(f"empty {what} block", ln)
    return DiscreteDistribution(atoms, probs)


# The blocks a model of each variant reads, written out.
ORACLE_VARIANT_BLOCKS = {
    ModelVariant.LHVM: {"source", "instruments", "responses"},
    ModelVariant.M1: {"source", "instruments", "responses"},
    ModelVariant.M2: {"source", "instruments", "responses"},
    ModelVariant.M3: {"source", "joint-instruments", "responses"},
    ModelVariant.QUANTUM: {"angles"},
}


def oracle_loads(text, path=None):
    """A model file's text as a model, last copy of a repeated section kept.
    Only the parts the file's blocks give are passed to the one
    ``ExperimentModel`` call; a block its variant does not read is refused
    at its first ``begin`` line."""
    reader = _OracleReader(text, path)
    variant = None
    name = ""
    settings = {}
    parts = {}
    begins = {}     # section -> line of its first begin

    while True:
        ln, tokens = reader.next_tokens()
        if tokens is None:
            break
        key = tokens[0]
        if key == "version":
            if tokens[1:] != ["1"]:
                reader.fail(f"unsupported format version {' '.join(tokens[1:])!r}", ln)
        elif key == "variant":
            if len(tokens) != 2:
                reader.fail("variant: expected one value", ln)
            try:
                variant = ModelVariant(tokens[1])
            except ValueError:
                reader.fail(f"unknown variant {tokens[1]!r}", ln)
        elif key == "name":
            name = " ".join(tokens[1:])
        elif key == "settings":
            if len(tokens) < 3 or tokens[1] not in ("A", "B"):
                reader.fail("settings: expected 'settings A|B label...'", ln)
            settings[tokens[1]] = tuple(_decode_label(t) for t in tokens[2:])
        elif key == "begin":
            section = tokens[1] if len(tokens) > 1 else ""
            if section == "source":
                rows = _oracle_read_block(reader, 3, "source")
                atoms = [(_decode_label(a), _decode_label(b)) for _, (a, b, _p) in rows]
                probs = [_oracle_parse_prob(reader, p, ln2) for ln2, (_a, _b, p) in rows]
                parts["source"] = _oracle_distribution(reader, atoms, probs, ln, "source")
            elif section == "instruments":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin instruments A|B setting'", ln)
                rows = _oracle_read_block(reader, 2, "instruments")
                atoms = [_decode_label(a) for _, (a, _p) in rows]
                probs = [_oracle_parse_prob(reader, p, ln2) for ln2, (_a, p) in rows]
                station = "instruments_a" if tokens[2] == "A" else "instruments_b"
                parts.setdefault(station, {})[_decode_label(tokens[3])] = _oracle_distribution(
                    reader, atoms, probs, ln, "instruments")
            elif section == "joint-instruments":
                if len(tokens) != 4:
                    reader.fail("expected 'begin joint-instruments x y'", ln)
                rows = _oracle_read_block(reader, 3, "joint-instruments")
                atoms = [(_decode_label(a), _decode_label(b)) for _, (a, b, _p) in rows]
                probs = [_oracle_parse_prob(reader, p, ln2) for ln2, (_a, _b, p) in rows]
                pair = SettingPair(_decode_label(tokens[2]), _decode_label(tokens[3]))
                parts.setdefault("instruments_joint", {})[pair] = _oracle_distribution(
                    reader, atoms, probs, ln, "joint-instruments")
            elif section == "responses":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin responses A|B setting'", ln)
                rows = _oracle_read_block(reader, 3, "responses")
                mapping = {}
                for ln2, (sv, iv, out) in rows:
                    try:
                        outcome = int(out)
                    except ValueError:
                        reader.fail(f"bad outcome {out!r}", ln2)
                    mapping[(_decode_label(sv), _decode_label(iv))] = outcome
                station = "responses_a" if tokens[2] == "A" else "responses_b"
                parts.setdefault(station, {})[_decode_label(tokens[3])] = ResponseTable(mapping)
            elif section == "angles":
                if len(tokens) != 3 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin angles A|B'", ln)
                rows = _oracle_read_block(reader, 2, "angles")
                angles = parts.setdefault("angles_a" if tokens[2] == "A" else "angles_b", {})
                for ln2, (setting, value) in rows:
                    try:
                        angles[_decode_label(setting)] = float(value)
                    except ValueError:
                        reader.fail(f"bad angle {value!r}", ln2)
            else:
                reader.fail(f"unknown section {section!r}", ln)
            begins.setdefault(section, ln)
        else:
            reader.fail(f"unknown directive {key!r}", ln)

    if variant is None:
        reader.fail("missing 'variant' line")
    if "A" not in settings or "B" not in settings:
        reader.fail("missing 'settings A' or 'settings B' line")
    foreign = sorted((ln, section) for section, ln in begins.items()
                     if section not in ORACLE_VARIANT_BLOCKS[variant])
    if foreign:
        ln, section = foreign[0]
        reader.fail(f"a {variant.value} model has no {section} block", ln)
    if "source" in ORACLE_VARIANT_BLOCKS[variant] and "source" not in parts:
        reader.fail("missing source block")
    return ExperimentModel(variant, settings["A"], settings["B"], name=name, **parts)


# The keys of a config file and the type each value is read as, written out.
ORACLE_CONFIG_KEYS = {
    "scenario": str,
    "model": str,
    "windows": int,
    "window_ns": int,
    "setting_rule": str,
    "x": str,
    "y": str,
    "p_same": float,
    "detection_rate": float,
    "seed": int,
    "threads": int,
    "out_dir": str,
}


def oracle_load_config(path) -> dict:
    """A config file's ``key = value`` lines, lines broken by ``splitlines``."""
    values, lines = {}, {}
    for line_number, raw in enumerate(_oracle_read(path).splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in ORACLE_CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{line_number}: repeated key {key!r}, "
                              f"first on line {lines[key]}")
        lines[key] = line_number
        try:
            values[key] = ORACLE_CONFIG_KEYS[key](value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{line_number}: bad value for {key!r}") from None
    return values


def oracle_ingest_timetag_file(path, station="A") -> ClickStream:
    """A time-tag file's clicks, lines broken by ``io.StringIO(newline=None)``."""
    path = Path(path)
    times, settings, values = [], [], []
    last_t = None
    for line_number, raw in enumerate(io.StringIO(_oracle_read(path), newline=None), start=1):
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
        if t >= 2 ** 63:
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
    labels = oracle_label_order(settings)
    return ClickStream(station, times, [labels.index(s) for s in settings], values, labels)


def oracle_read_coincidence_csv(path):
    """A coincidence CSV's records; an error names the row's ordinal."""
    path = Path(path)
    rows = []
    reader = csv.reader(io.StringIO(_oracle_read(path), newline=""))
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
            if not -2 ** 63 <= window < 2 ** 63:
                raise ParseError(f"window {window} out of range",
                                 line_number=line_number, path=str(path))
            if a not in (-1, 0, 1) or b not in (-1, 0, 1) or (a == 0 and b == 0):
                raise ParseError(f"bad outcome pair ({row[3]}, {row[4]})",
                                 line_number=line_number, path=str(path))
            rows.append((window, None if row[1] == "" else _decode_label(row[1]),
                         None if row[2] == "" else _decode_label(row[2]), a, b))
    except csv.Error as exc:
        raise ParseError(str(exc), line_number=line_number + 1, path=str(path)) from None
    return oracle_records(rows)


def oracle_write_timetag_file(stream, path):
    """A time-tag file written one formatted line per click."""
    texts = [_label_text(label, "time-tag") for label in stream.labels]
    settings = _streams._label_array(texts)[stream.setting].tolist()
    lines = map("{}\t{}\t{:+d}\n".format, stream.t.tolist(), settings, stream.value.tolist())
    Path(path).write_text(f"# station {stream.station}: timestamp_ns setting outcome\n"
                          + "".join(lines), encoding="ascii")


def oracle_write_coincidence_csv(records, path):
    """A coincidence CSV written one ``csv.writer`` row per record."""
    texts_a = tuple(_label_text(label, "CSV") for label in records.settings_a)
    texts_b = tuple(_label_text(label, "CSV") for label in records.settings_b)
    x = _streams._label_array(texts_a + ("",))[records.x].tolist()     # code -1 picks ""
    y = _streams._label_array(texts_b + ("",))[records.y].tolist()
    with Path(path).open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "x", "y", "a", "b"])
        writer.writerows(zip(records.window.tolist(), x, y, records.a.tolist(),
                             records.b.tolist()))


# --------------------------------------------------------------------------
# Hand-written 2x2 bookkeeping
#
# The no-signalling report, the coupling's marginal-consistency check, its
# moment system and the moments of an explicit joint, as they were before
# the pair order and the four no-signalling contrasts were defined once
# (`core.pair_order`, `core.marginal_contrasts`).  Each spells the pairs
# and contrasts out by hand; `oracle_coupling_feasibility` is today's
# decision with the first two of them, and the dense simplex
# `oracle_solve_phase_one` below, in place of the package's.


def oracle_no_signalling(cs: CorrelationSet) -> NoSignallingReport:
    _four_pairs(cs)
    (x0, x1) = cs.settings_a
    (y0, y1) = cs.settings_b
    deltas = []
    for x in (x0, x1):
        p0 = cs.stats(x, y0)
        p1 = cs.stats(x, y1)
        delta = p0.e_a - p1.e_a
        se = math.hypot(p0.se_a, p1.se_a)
        deltas.append(MarginalDelta("A", x, (y0, y1), delta,
                                    float(delta) / se if se > 0 else None))
    for y in (y0, y1):
        p0 = cs.stats(x0, y)
        p1 = cs.stats(x1, y)
        delta = p0.e_b - p1.e_b
        se = math.hypot(p0.se_b, p1.se_b)
        deltas.append(MarginalDelta("B", y, (x0, x1), delta,
                                    float(delta) / se if se > 0 else None))
    zs = [abs(d.z) for d in deltas if d.z is not None]
    return NoSignallingReport(
        deltas=tuple(deltas),
        max_abs_delta=max(abs(d.delta) for d in deltas),
        max_abs_z=max(zs) if zs else None,
        conditioning=cs.conditioning,
    )


def oracle_marginal_consistency(spec: JointSpec, exact: bool = False) -> tuple[bool, list[str]]:
    """Float mode allows ``MOMENT_TOL``; exact mode compares rationals with
    ``==``."""
    conv, tol = (_core._as_fraction, 0) if exact else (float, MOMENT_TOL)
    (x0, x1), (y0, y1) = spec.settings_a, spec.settings_b
    offenders = []
    for x in (x0, x1):
        d = conv(spec.e_a[SettingPair(x, y0)]) - conv(spec.e_a[SettingPair(x, y1)])
        if abs(d) > tol:
            offenders.append(f"e_a({x!r}) differs across remote settings by {float(d)}")
    for y in (y0, y1):
        d = conv(spec.e_b[SettingPair(x0, y)]) - conv(spec.e_b[SettingPair(x1, y)])
        if abs(d) > tol:
            offenders.append(f"e_b({y!r}) differs across remote settings by {float(d)}")
    return not offenders, offenders


def oracle_moment_system(spec: JointSpec, exact: bool):
    conv = _core._as_fraction if exact else float
    half = Fraction(1, 2) if exact else 0.5
    (x0, x1), (y0, y1) = spec.settings_a, spec.settings_b
    rows = [[1] * len(ATOMS)]
    rhs = [conv(1)]
    singles = [
        (0, (spec.e_a[SettingPair(x0, y0)], spec.e_a[SettingPair(x0, y1)])),
        (1, (spec.e_a[SettingPair(x1, y0)], spec.e_a[SettingPair(x1, y1)])),
        (2, (spec.e_b[SettingPair(x0, y0)], spec.e_b[SettingPair(x1, y0)])),
        (3, (spec.e_b[SettingPair(x0, y1)], spec.e_b[SettingPair(x1, y1)])),
    ]
    for slot, (v1, v2) in singles:
        rows.append([atom[slot] for atom in ATOMS])
        rhs.append((conv(v1) + conv(v2)) * half)
    for i, x in enumerate((x0, x1)):
        for j, y in enumerate((y0, y1)):
            rows.append([atom[i] * atom[2 + j] for atom in ATOMS])
            rhs.append(conv(spec.e_ab[SettingPair(x, y)]))
    return rows, rhs


def oracle_coupling_feasibility(spec: JointSpec, exact: bool = False) -> CouplingResult:
    """Float mode allows every check ``MOMENT_TOL``; exact mode allows none."""
    tol = 0 if exact else MOMENT_TOL
    consistent, offenders = oracle_marginal_consistency(spec, exact)
    if not consistent:
        return CouplingResult(False, None, "marginal-consistency: " + offenders[0],
                              residual=None)
    rows, rhs = oracle_moment_system(spec, exact)
    optimum, x = oracle_solve_phase_one(rows, rhs, exact=exact)
    residual = float(optimum)
    if optimum <= tol:
        probs = [v if v > 0 else 0 for v in x]
        witness = DiscreteDistribution(ATOMS, probs)
        return CouplingResult(True, witness, None, residual=residual)
    for pattern, value in chsh_statistics(spec, exact):
        size = abs(value) if exact else abs(float(value))
        if size > 2 + tol:
            return CouplingResult(
                False, None,
                f"CHSH pattern {pattern}: |S| = {float(size)} > 2",
                residual=residual)
    realizable, offenders = pairwise_realizability(spec, exact)
    if not realizable:
        return CouplingResult(False, None, "pairwise-realizability: " + offenders[0],
                              residual=residual)
    return CouplingResult(False, None,
                          f"no joint distribution matches the moments "
                          f"(L1 mismatch {residual})", residual=residual)


def oracle_joint_moments(dist: DiscreteDistribution, settings_a, settings_b) -> JointSpec:
    settings_a = tuple(settings_a)
    settings_b = tuple(settings_b)
    e_a = {}
    e_b = {}
    e_ab = {}
    for i, x in enumerate(settings_a):
        for j, y in enumerate(settings_b):
            sp = SettingPair(x, y)
            e_a[sp] = sum(p * atom[i] for atom, p in dist.items())
            e_b[sp] = sum(p * atom[2 + j] for atom, p in dist.items())
            e_ab[sp] = sum(p * atom[i] * atom[2 + j] for atom, p in dist.items())
    return JointSpec(settings_a, settings_b, e_ab, e_a, e_b)


# --------------------------------------------------------------------------
# The exact route's dense loops
#
# As they were before the simplex skipped the zeros of the pivot row,
# `core.chsh_values` summed Fractions over one denominator, and the
# outcome and totality checks let valid responses through on set
# operations.


def oracle_solve_phase_one(rows, rhs, exact: bool = False):
    """Phase-one simplex with Bland's rule that divides and eliminates
    every tableau entry, zero or not."""
    m = len(rhs)
    n = len(rows[0])
    if exact:
        zero, one = Fraction(0), Fraction(1)
        rows = [[_core._as_fraction(v) for v in row] for row in rows]
        rhs = [_core._as_fraction(v) for v in rhs]
        eps = zero
    else:
        zero, one = 0.0, 1.0
        rows = [[float(v) for v in row] for row in rows]
        rhs = [float(v) for v in rhs]
        eps = 1e-12

    tab = []
    for i in range(m):
        sign = one if rhs[i] >= 0 else -one
        row = [sign * v for v in rows[i]]
        row += [one if j == i else zero for j in range(m)]
        row.append(sign * rhs[i])
        tab.append(row)
    basis = [n + i for i in range(m)]

    width = n + m
    reduced = [zero] * width
    for j in range(width):
        col_sum = sum(tab[i][j] for i in range(m))
        cost = one if j >= n else zero
        reduced[j] = cost - col_sum

    while True:
        entering = next((j for j in range(width) if reduced[j] < -eps), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > eps:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise BellsimError("phase-one simplex became unbounded; inputs are malformed")
        piv = tab[pivot_row][entering]
        tab[pivot_row] = [v / piv for v in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][entering] != zero:
                f = tab[i][entering]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[pivot_row])]
        f = reduced[entering]
        reduced = [v - f * w for v, w in zip(reduced, tab[pivot_row][:-1])]
        basis[pivot_row] = entering

    optimum = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    x = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return optimum, x


def oracle_chsh_values(correlators) -> list[tuple[str, object]]:
    """Each of the eight odd-minus combinations summed term by term."""
    out = []
    for signs in product((1, -1), repeat=4):
        if signs.count(-1) % 2 == 1:
            pattern = "".join("+" if s > 0 else "-" for s in signs)
            out.append((pattern, sum(s * e for s, e in zip(signs, correlators))))
    return out


def oracle_outcome_violations(variant, station, setting, outcomes) -> list[str]:
    """Every outcome walked: not an int -1, 0 or +1, and for lhvm 0."""
    bad = []
    lhvm, zero = variant is ModelVariant.LHVM, False
    for o in outcomes:
        integral = type(o) is int or isinstance(o, numbers.Integral)
        if (not integral or o not in _core.VALID_OUTCOMES) and o not in bad:
            bad.append(o)
        if lhvm and o == 0:
            zero = True
    if all(isinstance(o, (int, float)) for o in bad):
        bad.sort()
    v = [f"responses {station}[{setting!r}]: outcomes outside -1/0/+1: {bad}"] if bad else []
    if zero:
        v.append(f"responses {station}[{setting!r}]: lhvm responses must never output 0")
    return v


def oracle_table_totality(model) -> list[str]:
    """`validate_model`'s missing-entry messages, every key looked up."""
    v = []
    source = model.source
    if (isinstance(source, DiscreteDistribution) and _core._hashable(source.atoms)
            and all(isinstance(a, tuple) and len(a) == 2 for a in source.atoms)):
        for comp, station, resps, settings in (
            (0, "A", model.responses_a or {}, model.settings_a),
            (1, "B", model.responses_b or {}, model.settings_b),
        ):
            src_vals = dict.fromkeys(a[comp] for a in source.atoms)
            for s in settings:
                resp = resps.get(s)
                if not isinstance(resp, ResponseTable):
                    continue
                inst_vals = _core._instrument_values(model, comp, s)
                for sv in src_vals:
                    for iv in inst_vals:
                        if (sv, iv) not in resp.mapping:
                            v.append(
                                f"responses {station}[{s!r}]: no entry for ({sv!r}, {iv!r})"
                            )
    return v
