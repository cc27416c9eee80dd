"""Turn coincidence records or exact results into correlation statistics.

Two conditionings are always distinguished.  "raw" averages over every
record of a setting pair, zeros included.  "postselected" restricts to
records where both stations clicked (a*b != 0) and is the quantity
usually quoted from coincidence experiments; its per-pair detection rate
``c_hat = n_post / n_raw`` estimates P(A*B != 0).

Outcomes under different setting pairs are bookkept as distinct random
variables: every statistic is indexed by the full pair (x, y), and the
no-signalling report quantifies how much a station's conditional marginal
moves when only the remote setting changes.

Every statistic derives from one 3x3 count table per setting pair over
the outcomes (a, b) in {-1, 0, +1}^2, built in a single counting pass
over the records and kept on them (``CoincidenceRecords.count_tables``),
so both conditionings of one records object share one count;
`core.table_sums` reads off its integer counts and sums, the same closed
form that exact enumeration uses, and the means and ``c_hat`` are their
float quotients.

Standard errors are plug-in (sample standard deviation over sqrt(n),
no small-sample corrections), sqrt((n * sum(v^2) - sum(v)^2) / n^3) on
those exact integer sums; conditional marginals use the post-selected
count.  Exact results carry zero standard errors and a z-score of None.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import ExactResult, SettingPair, chsh_values, table_sums
from .errors import EmptyCell, MissingPair, UnknownSetting
from .streams import CoincidenceRecords

RAW = "raw"
POSTSELECTED = "postselected"


class PairStats(NamedTuple):
    e_ab: float
    e_a: float
    e_b: float
    n_raw: int
    n_post: int
    c_hat: float
    se_ab: float
    se_a: float
    se_b: float


class CorrelationSet(NamedTuple):
    """Per-setting-pair statistics and their conditioning; estimates list pairs in pair order."""

    settings_a: tuple
    settings_b: tuple
    pairs: dict            # SettingPair -> PairStats
    conditioning: str
    n_unassigned: int = 0  # records skipped because a silent side's setting is unknown

    def stats(self, x, y) -> PairStats:
        try:
            return self.pairs[SettingPair(x, y)]
        except KeyError:
            raise MissingPair(f"no statistics for setting pair ({x!r}, {y!r})") from None

    def pair_order(self) -> list[SettingPair]:
        return [SettingPair(x, y) for x in self.settings_a for y in self.settings_b]


def _count_tables(records):
    """``CoincidenceRecords.count_tables`` of ``records``, which is
    ``CoincidenceRecords`` or any iterable of ``CoincidenceRecord``s,
    converted to columns first."""
    return CoincidenceRecords.of(records).count_tables


def _estimate(records, conditioning: str) -> CorrelationSet:
    settings_a, settings_b, tables, unassigned = _count_tables(records)
    if not tables:
        raise EmptyCell("no records with a known setting pair")
    out = {}
    for sp, table in tables.items():
        raw, selected = table_sums(table)
        n, sums, squares = selected if conditioning == POSTSELECTED else raw
        if not n:
            raise EmptyCell(f"no record with both outcomes non-zero for pair {tuple(sp)}")
        means = (s / n for s in sums)
        ses = (math.sqrt((n * q - s * s) / n ** 3) for s, q in zip(sums, squares))
        out[sp] = PairStats(*means, raw[0], selected[0], selected[0] / raw[0], *ses)
    return CorrelationSet(settings_a, settings_b, out, conditioning, unassigned)


def estimate_raw(records) -> CorrelationSet:
    """Per-pair means over all records, zeros included.

    Records whose setting pair is partially unknown (silent side of
    ingested data) cannot be assigned to a cell; they are skipped and
    counted in ``n_unassigned``.
    """
    return _estimate(records, RAW)


def estimate_postselected(records) -> CorrelationSet:
    """Per-pair means restricted to records where both stations clicked."""
    return _estimate(records, POSTSELECTED)


def correlation_set_from_exact(results: dict, settings_a, settings_b,
                               conditioning: str) -> CorrelationSet:
    """Wrap exact per-pair results so they flow through the same reports.

    Pairs are listed in the ``pair_order()`` of ``settings_a`` and
    ``settings_b``; a result for a pair outside them is UnknownSetting.
    Standard errors are zero and counts are zero; exact rational values are
    preserved as-is so downstream sums stay exact.
    """
    settings_a, settings_b = tuple(settings_a), tuple(settings_b)
    order = [SettingPair(x, y) for x in settings_a for y in settings_b]
    stats = {}
    for sp, r in results.items():
        sp = SettingPair(*sp)
        if not isinstance(r, ExactResult):
            raise TypeError(f"expected ExactResult for pair {tuple(sp)}")
        if sp not in order:
            raise UnknownSetting(f"result for pair {tuple(sp)} outside the settings "
                                 f"{settings_a} x {settings_b}")
        stats[sp] = PairStats(
            e_ab=r.e_ab, e_a=r.e_a, e_b=r.e_b,
            n_raw=0, n_post=0, c_hat=r.c_xy,
            se_ab=0.0, se_a=0.0, se_b=0.0,
        )
    pairs = {sp: stats[sp] for sp in order if sp in stats}
    return CorrelationSet(settings_a, settings_b, pairs, conditioning)


# --------------------------------------------------------------------------
# CHSH


class ChshReport(NamedTuple):
    """All eight odd-minus sign combinations of the four correlators.

    ``pair_order`` fixes which correlator each sign position refers to;
    pattern ids spell the signs, e.g. ``"++-+"``.  Reporting every variant
    forecloses cherry-picking a favourable one.
    """

    pair_order: tuple
    correlators: tuple
    s_values: tuple        # ((pattern, value), ...) in deterministic order
    s_max_abs: float
    se_s: float
    violating_pattern: "str | None"
    conditioning: str


def _four_pairs(cs: CorrelationSet) -> list[SettingPair]:
    if len(cs.settings_a) != 2 or len(cs.settings_b) != 2:
        raise MissingPair(
            f"need exactly two settings per station, have {cs.settings_a!r} x {cs.settings_b!r}"
        )
    order = cs.pair_order()
    missing = [tuple(sp) for sp in order if sp not in cs.pairs]
    if missing:
        raise MissingPair(f"missing setting pairs: {missing}")
    return order


def chsh(cs: CorrelationSet) -> ChshReport:
    order = _four_pairs(cs)
    es = [cs.pairs[sp].e_ab for sp in order]
    ses = [cs.pairs[sp].se_ab for sp in order]
    values = chsh_values(es)
    violating = next((pattern for pattern, v in values if abs(v) > 2), None)
    return ChshReport(
        pair_order=tuple(order),
        correlators=tuple(es),
        s_values=tuple(values),
        s_max_abs=max(abs(v) for _, v in values),
        se_s=math.sqrt(sum(float(se) ** 2 for se in ses)),
        violating_pattern=violating,
        conditioning=cs.conditioning,
    )


# --------------------------------------------------------------------------
# No-signalling


class MarginalDelta(NamedTuple):
    station: str           # which station's marginal is compared
    setting: object        # that station's own setting
    remote_settings: tuple  # the two remote settings being contrasted
    delta: float
    z: "float | None"      # None when either standard error is zero


class NoSignallingReport(NamedTuple):
    deltas: tuple
    max_abs_delta: float
    max_abs_z: "float | None"
    conditioning: str


def no_signalling(cs: CorrelationSet) -> NoSignallingReport:
    """Contrast each station's marginal across the other station's settings.

    Under the stated conditioning: delta_a(x) = e_a(x, y0) - e_a(x, y1) and
    delta_b(y) = e_b(x0, y) - e_b(x1, y), with z = delta over the pooled
    standard error.
    """
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


# --------------------------------------------------------------------------
# Serialisation


def correlation_set_to_dict(cs: CorrelationSet) -> dict:
    return {
        "conditioning": cs.conditioning,
        "settings_a": list(cs.settings_a),
        "settings_b": list(cs.settings_b),
        "n_unassigned": cs.n_unassigned,
        "pairs": [
            {
                "x": sp.x, "y": sp.y,
                "e_ab": float(p.e_ab), "e_a": float(p.e_a), "e_b": float(p.e_b),
                "n_raw": p.n_raw, "n_post": p.n_post, "c_hat": float(p.c_hat),
                "se_ab": p.se_ab, "se_a": p.se_a, "se_b": p.se_b,
            }
            for sp, p in cs.pairs.items()
        ],
    }


def chsh_report_to_dict(r: ChshReport) -> dict:
    return {
        "conditioning": r.conditioning,
        "pair_order": [[sp.x, sp.y] for sp in r.pair_order],
        "correlators": [float(e) for e in r.correlators],
        "s_values": [{"pattern": p, "s": float(v)} for p, v in r.s_values],
        "s_max_abs": float(r.s_max_abs),
        "se_s": r.se_s,
        "violating_pattern": r.violating_pattern,
    }


def nosignalling_report_to_dict(r: NoSignallingReport) -> dict:
    return {
        "conditioning": r.conditioning,
        "deltas": [
            {
                "station": d.station,
                "setting": d.setting,
                "remote_settings": list(d.remote_settings),
                "delta": float(d.delta),
                "z": d.z,
            }
            for d in r.deltas
        ],
        "max_abs_delta": float(r.max_abs_delta),
        "max_abs_z": r.max_abs_z,
    }
