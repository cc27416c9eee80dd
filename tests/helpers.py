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
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from bellsim.core import (
    DiscreteDistribution,
    ExactResult,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
)
from bellsim.estimators import RAW, CorrelationSet, PairStats
from bellsim.errors import EmptyCell
from bellsim.streams import CoincidenceRecord
from bellsim.core import SettingPair


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


def oracle_enumerate(model, sp):
    """Fraction enumeration over every (source, instrument) term of one pair.

    Returns ``(raw, postselected)`` ExactResults; ``postselected`` is None
    when no term has both outcomes non-zero.
    """
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
