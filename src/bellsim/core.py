"""Generative models for two-station correlation experiments.

A model describes one trial of a paired-detection experiment.  A source
emits a pair of systems carrying hidden values ``(l1, l2)`` drawn from a
joint distribution.  Each station combines its half with a local
instrument value drawn fresh every trial, and a deterministic response
maps the two values to an outcome -1, 0 or +1, where 0 means "no
detection".  Five variants cover the families handled here:

``lhvm``
    Shared source values only; responses always produce +-1.
``m1``
    Three-outcome responses with per-setting instrument noise, analysed
    unconditionally (zeros kept in the averages).
``m2``
    The same generative law analysed conditionally on both stations
    detecting (zeros discarded, averages divided by the detection rate).
``m3``
    Instrument values at the two stations drawn from a joint, possibly
    correlated, distribution per setting pair.
``quantum``
    No hidden values at all: the ideal polarization-singlet reference with
    correlation cos 2(theta_a - theta_b) and uniform marginals.

Every lambda space is a finite `DiscreteDistribution`, so two engines
evaluate every model: exact enumeration over the lambda spaces, here
(rational arithmetic, results are exact), and the seeded, vectorised
Monte Carlo of ``streams``, which owns the frozen per-window draw.
Quantum models have no lambda space; enumeration reads their analytic
result.

Enumeration fills each setting pair's 3x3 outcome table P(a, b | x, y)
with integer numerators over the spaces' common denominator d, and
`table_sums` reads every reported number off it as a quotient of
integers; Fractions are built only for the results, and for
`outcome_table`'s ``n / d`` cells.  That table algebra, with the types the
other layers share (`SettingPair`, `ExactResult`, `DiscreteDistribution`),
`pair_order`, `marginal_contrasts` and `chsh_values`, lives in ``tables``,
which imports no numpy; this module re-exports its names.

A model's validity, its exact outcome tables and its outcome grids are
computed once per `ExperimentModel` instance, on first use, and shared by
every later call (`enumerate_raw`, `enumerate_postselected`,
`outcome_table`, the samplers of ``streams``).  The grid of a station's
setting is one int8 array, its response tabulated once over the source
atoms (rows) and the setting's instrument values (columns) when the model
is first enumerated or sampled: a response table is looked up once per
cell in its dict, and a plain callable or a table subclass is called once
per cell, a plain callable's outcomes checked there.  The Monte Carlo
path indexes its columns; enumeration contracts a pair's two grids with
the integer weights, one contraction for every variant (`_build_tables`).
So each response is read once per model, setting and cell.  Models are
therefore never changed in place: to change one, build a new instance, for
example with `dataclasses.replace`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, starmap

import numpy as np

from .errors import (
    DegenerateConditioning,
    InvalidModel,
    NonFiniteSpace,
    UnknownSetting,
)
# The numpy-free table algebra; every name is re-exported for core's callers.
from .tables import (
    PROB_TOL,
    DiscreteDistribution,
    ExactResult,
    SettingPair,
    _as_fraction,
    _hashable,
    chsh_values,
    marginal_contrasts,
    pair_order,
    table_sums,
)

# An outcome is a plain int; 0 encodes "no detection".
Outcome = int
VALID_OUTCOMES = (-1, 0, 1)     # outcome o at index o + 1, as the stream writers code it


@dataclass(frozen=True, init=False)
class ResponseTable:
    """Total deterministic map (source value, instrument value) -> outcome.

    Stored row-wise so it can round-trip through model files.  Any callable
    of two arguments is also accepted wherever a response is expected;
    tables are just the serialisable, statically checkable form.
    """

    mapping: dict

    def __init__(self, mapping):
        # A dict or (key, outcome) pairs; either way the table keeps its own dict.
        object.__setattr__(self, "mapping", dict(mapping))

    def __call__(self, source_value, instrument_value) -> Outcome:
        try:
            return self.mapping[(source_value, instrument_value)]
        except KeyError:
            raise UnknownSetting(
                f"response table has no entry for ({source_value!r}, {instrument_value!r})"
            ) from None

    def outcomes(self):
        return self.mapping.values()


class ModelVariant(str, Enum):
    LHVM = "lhvm"
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    QUANTUM = "quantum"


# The parts of an `ExperimentModel` each variant reads, in model-file order;
# `validate_model` reports any other part that is set.
_VARIANT_FIELDS = dict.fromkeys(
    (ModelVariant.LHVM, ModelVariant.M1, ModelVariant.M2),
    ("source", "instruments_a", "instruments_b", "responses_a", "responses_b")) | {
    ModelVariant.M3: ("source", "instruments_joint", "responses_a", "responses_b"),
    ModelVariant.QUANTUM: ("angles_a", "angles_b")}
_PARTS = tuple(dict.fromkeys(chain.from_iterable(_VARIANT_FIELDS.values())))


def _foreign_parts(model) -> list[str]:
    """A violation for each part of ``model`` that is set although its
    variant does not read it."""
    reads = _VARIANT_FIELDS[model.variant]
    return [f"{field}: a {model.variant.value} model does not read it"
            for field in _PARTS if field not in reads and getattr(model, field) is not None]


@dataclass(frozen=True)
class ExperimentModel:
    """Complete generative description of one experiment.

    ``source`` is a distribution over pairs ``(l1, l2)``.  For product
    variants, ``instruments_a[x]`` and ``instruments_b[y]`` give the
    per-setting instrument distributions; for ``m3``,
    ``instruments_joint[(x, y)]`` gives a joint distribution over pairs
    ``(lx, ly)`` per setting pair.  ``responses_a[x]`` maps ``(l1, lx)`` to
    an outcome, ``responses_b[y]`` maps ``(l2, ly)``.  Quantum models carry
    analyzer angles instead and no hidden spaces.  A model sets only the
    parts its variant reads (`_VARIANT_FIELDS`) and holds its settings as
    tuples; `validate_model` reports anything else.

    Validity, the exact outcome tables and each station setting's outcome
    grid (its response tabulated once, see `_outcome_grid`) are computed
    once per instance, on first use, and cached on it; nothing validates or
    evaluates the dicts again.  Never change a model in place: build a new
    one, for example with ``dataclasses.replace(model, responses_a=...)``.
    """

    variant: ModelVariant
    settings_a: tuple
    settings_b: tuple
    source: DiscreteDistribution | None = None
    instruments_a: dict | None = None
    instruments_b: dict | None = None
    instruments_joint: dict | None = None
    responses_a: dict | None = None
    responses_b: dict | None = None
    angles_a: dict | None = None
    angles_b: dict | None = None
    name: str = ""

    def pairs(self) -> list[SettingPair]:
        return pair_order(self.settings_a, self.settings_b)

    @cached_property
    def _violations(self) -> tuple:
        return tuple(validate_model(self))

    @cached_property
    def _tables(self) -> dict:
        return _build_tables(self)

    @cached_property
    def _grids(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# Validation


def _check_space(space, label, violations, want_pairs=False):
    if space is None:
        violations.append(f"{label}: missing")
        return
    if not isinstance(space, DiscreteDistribution):
        violations.append(f"{label}: not a distribution")
        return
    violations.extend(space.violations(label))
    if want_pairs and any(not (isinstance(a, tuple) and len(a) == 2) for a in space.atoms):
        violations.append(f"{label}: atoms must be 2-tuples")


def validate_model(model: ExperimentModel) -> list[str]:
    """Check a model against its structural invariants.

    Returns a list of human-readable violations; an empty list means the
    model is usable.  Nothing is raised, so malformed models can be
    diagnosed.  A part the variant does not read must be None, and the
    settings must be tuples, as a model file reads them.
    """
    if not isinstance(model.variant, ModelVariant):
        return [f"unknown variant {model.variant!r}"]
    reads = _VARIANT_FIELDS[model.variant]
    v = _foreign_parts(model)
    declared = {}   # station -> its settings, when they pass their own check
    for station, settings in (("a", model.settings_a), ("b", model.settings_b)):
        if not isinstance(settings, tuple):
            v.append(f"settings_{station}: not a tuple")
        elif not _hashable(settings):
            v.append(f"settings_{station}: setting labels must be hashable")
        elif len(settings) < 2 or len(set(settings)) != len(settings):
            v.append(f"settings_{station}: need at least two distinct setting labels")
        else:
            declared[station] = settings
    if (not isinstance(model.settings_a, tuple) or not isinstance(model.settings_b, tuple)
            or not _hashable(model.settings_a + model.settings_b)):
        return v  # every later check looks settings up by label
    for station, settings in declared.items():
        for part in ("instruments", "responses", "angles"):
            if f"{part}_{station}" in reads:
                v.extend(f"{part} {station.upper()}: entry for undeclared setting {s!r}"
                         for s in getattr(model, f"{part}_{station}") or () if s not in settings)
    if "instruments_joint" in reads and len(declared) == 2:
        pairs = set(model.pairs())
        v.extend(f"joint instruments: entry for undeclared pair "
                 f"{tuple(sp) if isinstance(sp, tuple) else sp!r}"
                 for sp in model.instruments_joint or () if sp not in pairs)

    if model.variant is ModelVariant.QUANTUM:
        for station, angles, settings in (("A", model.angles_a, model.settings_a),
                                          ("B", model.angles_b, model.settings_b)):
            if angles is None:
                v.append(f"angles {station}: missing")
                continue
            for s in settings:
                if s not in angles:
                    v.append(f"angles {station}: no angle for setting {s!r}")
                elif not isinstance(angles[s], (int, float)):
                    v.append(f"angles {station}: angle for {s!r} is not a number")
                elif not abs(angles[s]) <= sys.float_info.max:  # NaN, inf, ints past floats
                    v.append(f"angles {station}: angle for {s!r} is not finite")
        if v:
            return v
        for x, y in model.pairs():
            try:    # the correlation is cos(2 (a - b)); finite angles can overflow it
                finite = math.isfinite(2.0 * (model.angles_a[x] - model.angles_b[y]))
            except OverflowError:   # int angles whose difference passes the float range
                finite = False
            if not finite:
                v.append(f"angles: difference for pair {(x, y)!r} is not finite")
        return v

    _check_space(model.source, "source", v, want_pairs=True)

    if model.variant is ModelVariant.M3:
        joints = model.instruments_joint or {}
        for sp in model.pairs():
            if sp not in joints:
                v.append(f"joint instruments: no distribution for pair {tuple(sp)}")
            else:
                _check_space(joints[sp], f"joint instruments {tuple(sp)}", v, want_pairs=True)
    else:
        for station, insts, settings in (("A", model.instruments_a, model.settings_a),
                                         ("B", model.instruments_b, model.settings_b)):
            insts = insts or {}
            for s in settings:
                if s not in insts:
                    v.append(f"instruments {station}: no distribution for setting {s!r}")
                else:
                    _check_space(insts[s], f"instruments {station}[{s!r}]", v)

    for station, resps, settings in (("A", model.responses_a, model.settings_a),
                                     ("B", model.responses_b, model.settings_b)):
        resps = resps or {}
        for s in settings:
            if s not in resps:
                v.append(f"responses {station}: no response for setting {s!r}")
                continue
            resp = resps[s]
            if isinstance(resp, ResponseTable):
                v.extend(_outcome_violations(model.variant, station, s, resp.outcomes()))
            elif not callable(resp):
                v.append(f"responses {station}[{s!r}]: not a table or callable")

    # Table totality over the declared finite spaces.
    source = model.source
    if (isinstance(source, DiscreteDistribution) and _hashable(source.atoms)
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
                inst_vals = _instrument_values(model, comp, s)
                if all(map(resp.mapping.__contains__, product(src_vals, inst_vals))):
                    continue
                for sv in src_vals:   # word the missing entries
                    for iv in inst_vals:
                        if (sv, iv) not in resp.mapping:
                            v.append(
                                f"responses {station}[{s!r}]: no entry for ({sv!r}, {iv!r})"
                            )
    return v


def _outcome_violations(variant, station, setting, outcomes) -> list[str]:
    """The violations of a response of a ``variant`` model's ``station`` at
    ``setting`` that gives ``outcomes`` (a collection): an outcome other
    than the int -1, 0 or +1, and for lhvm an outcome 0.  Plain ints among
    the allowed values pass two set-membership tests; only other outcomes are
    walked one by one, to word the violations."""
    lhvm = variant is ModelVariant.LHVM
    if set(map(type, outcomes)) <= {int} and set(outcomes) <= ({-1, 1} if lhvm else {-1, 0, 1}):
        return []
    bad = []
    zero = False
    for o in outcomes:
        # 1.0 == 1, so the type counts too; int first, as the ABC check is slow
        integral = type(o) is int or isinstance(o, numbers.Integral)
        if (not integral or o not in VALID_OUTCOMES) and o not in bad:
            bad.append(o)
        if lhvm and o == 0:
            zero = True
    if all(isinstance(o, (int, float)) for o in bad):
        bad.sort()
    v = [f"responses {station}[{setting!r}]: outcomes outside -1/0/+1: {bad}"] if bad else []
    if zero:
        v.append(f"responses {station}[{setting!r}]: lhvm responses must never output 0")
    return v


def _instrument_values(model, comp, setting) -> dict:
    """The instrument atoms that the response for ``setting`` of station
    ``comp`` (0 for A, 1 for B) must cover, in declaration order; for m3,
    the union over the joint distributions of the setting's pairs."""
    if model.variant is ModelVariant.M3:
        values = {}
        for sp in model.pairs():
            joint = (model.instruments_joint or {}).get(sp)
            if (sp[comp] == setting and isinstance(joint, DiscreteDistribution)
                    and _hashable(joint.atoms)
                    and all(isinstance(a, tuple) and len(a) == 2 for a in joint.atoms)):
                values.update(dict.fromkeys(a[comp] for a in joint.atoms))
        return values
    insts = (model.instruments_a, model.instruments_b)[comp] or {}
    space = insts.get(setting)
    if isinstance(space, DiscreteDistribution) and _hashable(space.atoms):
        return dict.fromkeys(space.atoms)
    return {}


def ensure_valid(model: ExperimentModel) -> None:
    if model._violations:
        raise InvalidModel(model._violations)


def _check_pair(model: ExperimentModel, sp: SettingPair) -> SettingPair:
    sp = SettingPair(*sp)
    if sp.x not in model.settings_a or sp.y not in model.settings_b:
        raise UnknownSetting(f"setting pair {tuple(sp)} not declared by the model")
    return sp


# ---------------------------------------------------------------------------
# Per-pair outcome tables and exact enumeration


def quantum_reference_correlation(theta_a: float, theta_b: float) -> float:
    """Ideal polarization-singlet correlation cos 2(theta_a - theta_b).

    This is the signed correlation implied by a coincidence probability
    proportional to cos^2 of the relative analyzer angle, with uniform
    single-station marginals.  It is the reference curve, not a
    hidden-variable model.
    """
    return math.cos(2.0 * (theta_a - theta_b))


def _outcome_grid(model: ExperimentModel, comp: int, setting) -> tuple[dict, np.ndarray]:
    """``(columns, grid)``: the response of station ``comp`` (0 for A, 1 for
    B) at ``setting``, tabulated once per model on first use.  ``columns``
    maps each instrument value the response must cover (`_instrument_values`)
    to its column; ``grid[i, columns[v]]`` is the int8 outcome for the
    station's half of source atom i and instrument value v.

    The grid is filled in one pass, row by row, over the product of the
    source atoms' halves and the instrument values.  A `ResponseTable` is
    looked up once per cell in its dict, straight into the int8 grid; every
    key is there, as the model is valid.  Any other response, a plain
    callable or a table subclass, is called once per cell into one flat
    list, on which a plain callable's outcomes are checked (InvalidModel)."""
    key = comp, setting
    if key not in model._grids:
        resp = (model.responses_a, model.responses_b)[comp][setting]
        values = list(_instrument_values(model, comp, setting))
        halves = [atom[comp] for atom in model.source.atoms]
        cells = product(halves, values)
        if type(resp) is ResponseTable:
            grid = np.fromiter(map(resp.mapping.__getitem__, cells), np.int8,
                               len(halves) * len(values))
        else:
            outcomes = list(starmap(resp, cells))
            # validate_model validates a table's outcomes, not a callable's
            if not isinstance(resp, ResponseTable) and (
                    bad := _outcome_violations(model.variant, "AB"[comp], setting, outcomes)):
                raise InvalidModel(bad)
            grid = np.array(outcomes, dtype=np.int8)
        model._grids[key] = ({v: j for j, v in enumerate(values)},
                             grid.reshape(len(halves), len(values)))
    return model._grids[key]


def _build_tables(model: ExperimentModel) -> dict:
    """Every pair's exact P(a, b | x, y) and its `table_sums`, one pass over
    a valid non-quantum model, reading the responses from the outcome grids.

    Every variant is one integer contraction per pair over the grids G of
    its two settings,
    P(a, b) = sum_src w_src sum_ij W[i, j] [G_A[src, i] = a] [G_B[src, j] = b],
    where w_src and W are the numerators of the source and instrument
    weights (the joint weights for ``m3``, ``outer(w_a, w_b)`` otherwise)
    over their common denominators, whose product is d.  Every partial sum
    is non-negative and at most the weights' total (d for a normalised
    model), so the sums run in int64 below 2**63 and on Python ints (object
    arrays) from there on.  Each pair maps to ``(numerators, d,
    table_sums(numerators))`` with P(a, b) = ``numerators[a + 1][b + 1] / d``;
    the numerators are tuples of rows of ints, and no Fraction is built here.
    """
    w_source, d_source = model.source._integer_weights
    outcomes = np.array(VALID_OUTCOMES, dtype=np.int8)[:, None, None]
    out = {}
    for sp in model.pairs():
        (cols_a, grid_a), (cols_b, grid_b) = (_outcome_grid(model, 0, sp.x),
                                              _outcome_grid(model, 1, sp.y))
        if model.variant is ModelVariant.M3:
            joint = model.instruments_joint[sp]
            w_joint, d = joint._integer_weights
            weights = [[0] * len(cols_b) for _ in cols_a]
            for (lx, ly), w in zip(joint.atoms, w_joint):
                weights[cols_a[lx]][cols_b[ly]] = w
        else:
            (w_a, d_a), (w_b, d_b) = (model.instruments_a[sp.x]._integer_weights,
                                      model.instruments_b[sp.y]._integer_weights)
            weights, d = [[u * v for v in w_b] for u in w_a], d_a * d_b
        dtype = np.int64 if sum(w_source) * sum(map(sum, weights)) < 2 ** 63 else object
        # one_a[a + 1, src, i] = [G_A[src, i] = a], the same for B
        one_a, one_b = ((grid == outcomes).astype(dtype) for grid in (grid_a, grid_b))
        # weighted[a + 1, src, j] = w_src sum_i W[i, j] [G_A[src, i] = a]
        w_src = np.array(w_source, dtype=dtype)[:, None]
        weighted = one_a @ np.array(weights, dtype=dtype) * w_src
        table = (weighted.reshape(3, -1) @ one_b.reshape(3, -1).T).tolist()
        out[sp] = tuple(map(tuple, table)), d_source * d, table_sums(table)
    return out


def outcome_table(model: ExperimentModel, sp: SettingPair) -> list[list[Fraction]]:
    """Exact P(a, b | x, y) over the model's lambda spaces, as a fresh 3x3
    list indexed ``[a + 1][b + 1]``.  The tables of all pairs are built on
    first use and cached on the model (see `_build_tables`); NonFiniteSpace
    for a quantum model, which has no lambda space."""
    ensure_valid(model)
    sp = _check_pair(model, sp)
    if model.variant is ModelVariant.QUANTUM:
        raise NonFiniteSpace("quantum reference models have no lambda space; "
                             "use the analytic result")
    numerators, d, _ = model._tables[sp]
    return [[Fraction(n, d) for n in row] for row in numerators]


def _exact(model: ExperimentModel, sp: SettingPair, post: bool) -> ExactResult:
    ensure_valid(model)
    sp = _check_pair(model, sp)
    if model.variant is ModelVariant.QUANTUM:     # no lambda space: the analytic result
        e = quantum_reference_correlation(model.angles_a[sp.x], model.angles_b[sp.y])
        return ExactResult(e_ab=e, e_a=0.0, e_b=0.0, c_xy=1.0)
    raw, selected = model._tables[sp][2]
    n, sums, _ = selected if post else raw
    if not n:
        raise DegenerateConditioning(
            f"conditioning event has probability zero for pair {tuple(sp)}"
        )
    return ExactResult(*(Fraction(s, n) for s in sums), c_xy=Fraction(selected[0], raw[0]))


def enumerate_raw(model: ExperimentModel, sp: SettingPair) -> ExactResult:
    """Unconditional expectations over the full lambda space, zeros included."""
    return _exact(model, sp, post=False)


def enumerate_postselected(model: ExperimentModel, sp: SettingPair) -> ExactResult:
    """Expectations conditioned on both stations detecting (A*B != 0)."""
    return _exact(model, sp, post=True)
