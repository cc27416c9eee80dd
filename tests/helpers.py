"""Shared test utilities: independent oracles and random model generators.

The brute-force expectation oracle below recomputes model expectations with
plain float loops straight from the model definition.  It deliberately
shares no code with the package's enumeration engine so the two can check
each other.

Two differential oracles keep earlier implementations alive for comparison
with the per-pair outcome tables the package now computes: a per-record
estimator (one list of values per pair and statistic, two-pass standard
errors) and a Fraction enumerator that visits every term of the lambda
space with eight running sums.

Two more keep the event-object stream path for comparison with the
columnar one: a generator that builds one ``ClickEvent`` per click, and a
pairer that walks both event lists bin by bin with ``groupby``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
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
from bellsim import rng as _rng
from bellsim import streams as _streams
from bellsim.core import SettingPair, _PairSampler, ensure_valid
from bellsim.estimators import RAW, CorrelationSet, PairStats
from bellsim.errors import BellsimError, EmptyCell, SettingConflict, UnsortedStream
from bellsim.streams import ClickStream, CoincidenceRecord


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
    return ExperimentModel.product_model(
        ModelVariant.LHVM, settings, settings, source,
        {s: instruments[("A", s)] for s in settings},
        {s: instruments[("B", s)] for s in settings},
        responses_a, responses_b, name="random-lhvm")


def sampler_model():
    """A model with a sampler-backed source and callable responses, so
    every trial is drawn and evaluated one space at a time."""
    source = SamplerSpace(lambda g, n: [(int(v), int(v)) for v in g.integers(0, 3, n)])
    inst = {s: DiscreteDistribution.uniform([0, 1]) for s in (1, 2)}
    resp = {s: (lambda lam, i, s=s: (-1, 0, 1)[(lam + i * s) % 3]) for s in (1, 2)}
    return ExperimentModel.product_model(
        ModelVariant.M1, (1, 2), (1, 2), source, inst, dict(inst), resp, dict(resp))


def callable_response_model():
    """An m3 model over finite tables whose responses are plain callables,
    so its trials take the per-element path."""
    source = DiscreteDistribution([(0, 1), (1, 0), (2, 2)], [Fraction(1, 2), Fraction(1, 3),
                                                             Fraction(1, 6)])
    joint = {(x, y): DiscreteDistribution([(0, 0), (0, 1), (1, 1)],
                                          [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
             for x in ("u", "v") for y in (1, 2)}
    resp_a = {s: (lambda lam, i, s=s: (-1, 0, 1)[(lam + i + len(s)) % 3]) for s in ("u", "v")}
    resp_b = {s: (lambda lam, i, s=s: (1, -1)[(lam * s + i) % 2]) for s in (1, 2)}
    return ExperimentModel.correlated_instruments_model(
        ("u", "v"), (1, 2), source, joint, resp_a, resp_b)


def records_from_arrays(sp, a, b, start_window=0):
    sp = SettingPair(*sp)
    return [CoincidenceRecord(start_window + i, sp, int(ai), int(bi))
            for i, (ai, bi) in enumerate(zip(a, b))]


def make_records(sp, outcome_pairs):
    sp = SettingPair(*sp)
    return [CoincidenceRecord(i, sp, a, b) for i, (a, b) in enumerate(outcome_pairs)]


def mc_tolerance(se, floor=1e-12):
    """Five standard errors with a tiny absolute floor for exact cases."""
    return 5.0 * float(se) + floor


def sample_standard_error(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=0) / np.sqrt(len(values)))


# --------------------------------------------------------------------------
# Differential oracles


def _oracle_mean_se(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var / n)


def oracle_estimate(records, conditioning):
    """Per-record estimator: raw or post-selected statistics per setting pair.

    Groups records by pair in first-appearance order and averages Python
    lists; raises EmptyCell like the package's estimators.
    """
    groups = {}
    order_a = []
    order_b = []
    skipped = 0
    for r in records:
        if r.sp.x is None or r.sp.y is None:
            skipped += 1
            continue
        if r.sp.x not in order_a:
            order_a.append(r.sp.x)
        if r.sp.y not in order_b:
            order_b.append(r.sp.y)
        groups.setdefault(SettingPair(*r.sp), []).append(r)
    if not groups:
        raise EmptyCell("no records with a known setting pair")
    out = {}
    for sp, group in groups.items():
        survivors = [r for r in group if r.a * r.b != 0]
        used = group if conditioning == RAW else survivors
        if not used:
            raise EmptyCell(f"no record with both outcomes non-zero for pair {tuple(sp)}")
        e_ab, se_ab = _oracle_mean_se([r.a * r.b for r in used])
        e_a, se_a = _oracle_mean_se([r.a for r in used])
        e_b, se_b = _oracle_mean_se([r.b for r in used])
        out[sp] = PairStats(e_ab, e_a, e_b, len(group), len(survivors),
                            len(survivors) / len(group), se_ab, se_a, se_b)
    return CorrelationSet(tuple(order_a), tuple(order_b), out, conditioning, skipped)


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


def oracle_generate_streams(model, schedule, detection_rate, master_seed, workers=1):
    """Both stations' clicks, one ClickEvent per click, from the same chunk
    draws as ``generate_streams``."""
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
                ai, bi = samplers[sp].draw(gen, 1)
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
                                       f"settings {sorted(map(str, settings))}")
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
