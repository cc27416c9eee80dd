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

Two engines evaluate any finite model: exact enumeration over the lambda
spaces (rational arithmetic, results are exact) and seeded, vectorised
Monte Carlo.  Spaces declared through SamplerSpace are Monte-Carlo-only;
enumeration refuses them with NonFiniteSpace.

For one setting pair (x, y) the quantities of interest are the raw
(unconditional) expectations of A, B and A*B, the detection rate
``c_xy = P(A*B != 0)``, and the post-selected expectations, i.e. the same
sums restricted to trials where both stations detected and divided by
``c_xy``.  Every one of them derives from the per-pair 3x3 outcome table
P(a, b | x, y) over (a, b) in {-1, 0, +1}^2, held as integers: enumeration
fills it with numerators over the spaces' common denominator d, data
estimation with counts.  `table_sums` reads the nine cells once and returns
the integer counts and sums that every reported number is a quotient of;
enumeration divides them as Fractions, estimation as floats.  Fractions
are built only for the results, and for `outcome_table`'s ``n / d`` cells.

`pair_order` (station A's setting first) and `marginal_contrasts` (a
station's marginal at one setting, across the two remote settings) are
defined here once: the no-signalling deltas of `estimators.no_signalling`
and the marginal-consistency certificate and moment rows of `coupling`
compare the same four contrasts.

A model's validity, its exact outcome tables and its outcome grids are
computed once per `ExperimentModel` instance, on first use, and shared by
every later call (`enumerate_raw`, `enumerate_postselected`,
`outcome_table`, the samplers).  The grid of a station's setting is one
int8 array, its response tabulated once over the source atoms (rows) and
the setting's instrument values (columns), where a plain-callable
response's outcomes are checked, when the model is first enumerated or
sampled.  The finite Monte Carlo path indexes its columns; enumeration
contracts a pair's two grids with the integer weights, one contraction for
every variant (`_build_tables`).  So each response of a finite model is
evaluated once per model and setting.  Models are therefore
never changed in place: to change one, build a new instance, for example
with `dataclasses.replace`.
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
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateConditioning,
    InvalidModel,
    NonFiniteSpace,
    UnknownSetting,
)
from . import rng as _rng

# An outcome is a plain int; 0 encodes "no detection".
Outcome = int
VALID_OUTCOMES = (-1, 0, 1)     # outcome o at index o + 1, as the stream writers code it

# Absolute tolerance on probability normalisation.
PROB_TOL = 1e-9


class SettingPair(NamedTuple):
    """One choice of local settings, station A first."""

    x: Hashable
    y: Hashable


def _hashable(values) -> bool:
    """Whether every value (and every item of a tuple value) is hashable."""
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def _as_fraction(value) -> Fraction:
    """Exact rational form of a number: a Fraction, an int or numpy integer,
    or a float or numpy floating.

    Floats convert to their exact binary value, so arithmetic downstream is
    exact whatever the caller provides.  Anything else, a string or a bool
    included, is a TypeError; model files read probability text with
    ``modelio._decode_probability``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a probability")


@dataclass(frozen=True, init=False)
class DiscreteDistribution:
    """Finite distribution over opaque atoms with exact rational weights.

    Construction is permissive: structural problems raise immediately, but
    normalisation and sign problems are only reported by `violations()` so
    that malformed models can still be built and then diagnosed by
    `validate_model`.
    """

    atoms: tuple
    probs: tuple

    finite = True

    def __init__(self, atoms: Sequence, probs: Sequence):
        atoms = tuple(atoms)
        probs = tuple(_as_fraction(p) for p in probs)
        if len(atoms) != len(probs):
            raise ValueError("atoms and probs must have equal length")
        if not atoms:
            raise ValueError("a distribution needs at least one atom")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, atoms: Sequence) -> "DiscreteDistribution":
        atoms = tuple(atoms)
        return cls(atoms, [Fraction(1, len(atoms))] * len(atoms))

    @classmethod
    def point(cls, atom) -> "DiscreteDistribution":
        return cls((atom,), (Fraction(1),))

    @cached_property
    def _integer_weights(self) -> tuple[tuple[int, ...], int]:
        """The probabilities as integer numerators ``w`` over their least
        common denominator ``d``: ``probs[i] == Fraction(w[i], d)``, once."""
        d = math.lcm(*(p.denominator for p in self.probs))
        return tuple(p.numerator * (d // p.denominator) for p in self.probs), d

    @property
    def total(self) -> Fraction:
        w, d = self._integer_weights
        return Fraction(sum(w), d)

    def violations(self, label: str = "distribution") -> list[str]:
        out = []
        w, d = self._integer_weights
        if any(v < 0 for v in w):
            out.append(f"{label}: negative probability")
        total = float(Fraction(sum(w), d))
        if abs(total - 1.0) > PROB_TOL:
            out.append(f"{label}: probabilities sum to {total!r}, not 1")
        if not _hashable(self.atoms):
            out.append(f"{label}: atoms must be hashable")
        elif len(set(self.atoms)) != len(self.atoms):
            out.append(f"{label}: duplicate atoms")
        return out

    def items(self):
        return zip(self.atoms, self.probs)

    def float_probs(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=np.float64)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.float_probs())


@dataclass(frozen=True)
class SamplerSpace:
    """Monte-Carlo-only lambda space backed by a user sampler.

    ``draw(generator, n)`` must return a sequence of n atom values and must
    consume the generator deterministically.  Models using sampler spaces
    cannot be enumerated or written to model files.
    """

    draw: Callable[[np.random.Generator, int], Sequence]
    description: str = ""

    finite = False


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
    source: "DiscreteDistribution | SamplerSpace | None" = None
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

    def is_finite(self) -> bool:
        if self.variant is ModelVariant.QUANTUM:
            return True
        spaces = [self.source]
        if self.variant is ModelVariant.M3:
            spaces.extend((self.instruments_joint or {}).values())
        else:
            spaces.extend((self.instruments_a or {}).values())
            spaces.extend((self.instruments_b or {}).values())
        return all(getattr(s, "finite", False) for s in spaces)


class ExactResult(NamedTuple):
    """Expectations for one setting pair.

    ``e_ab``, ``e_a``, ``e_b`` are the (raw or post-selected) expectations
    and ``c_xy`` the detection rate P(A*B != 0).  Values are Fractions when
    produced by enumeration and floats when produced analytically.
    """

    e_ab: "Fraction | float"
    e_a: "Fraction | float"
    e_b: "Fraction | float"
    c_xy: "Fraction | float"


# ---------------------------------------------------------------------------
# Validation


def _check_space(space, label, violations, want_pairs=False):
    if space is None:
        violations.append(f"{label}: missing")
        return
    if isinstance(space, SamplerSpace):
        return
    if not isinstance(space, DiscreteDistribution):
        violations.append(f"{label}: not a distribution or sampler")
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


def _quantum_exact(model: ExperimentModel, sp: SettingPair) -> ExactResult:
    e = quantum_reference_correlation(model.angles_a[sp.x], model.angles_b[sp.y])
    return ExactResult(e_ab=e, e_a=0.0, e_b=0.0, c_xy=1.0)


def table_sums(table) -> tuple[tuple, tuple]:
    """The sufficient sums of one integer outcome table, indexed ``[a + 1][b + 1]``.

    Returns ``(raw, post)``: over every trial, and over the trials with
    A*B != 0.  Each is ``(n, sums, squares)``, the count ``n``, the sums of
    A*B, A and B in report order, and the sums of their squares.  Every
    reported number of a pair is a quotient of these integers; callers
    divide in their own number type.
    """
    (mm, m0, mp), (zm, zz, zp), (pm, p0, pp) = table
    both = mm + mp + pm + pp
    ab = mm + pp - mp - pm
    raw = (both + m0 + zm + zz + zp + p0,
           (ab, pm + p0 + pp - mm - m0 - mp, mp + zp + pp - mm - zm - pm),
           (both, both + m0 + p0, both + zm + zp))
    post = (both, (ab, pm + pp - mm - mp, mp + pp - mm - pm), (both, both, both))
    return raw, post


def pair_order(settings_a, settings_b) -> list[SettingPair]:
    """Every setting pair, station A's setting first: the pair of the
    settings at positions (x, y) sits at position x·|B| + y."""
    return [SettingPair(x, y) for x in settings_a for y in settings_b]


def marginal_contrasts(settings_a, settings_b) -> tuple:
    """The four no-signalling contrasts of a 2x2 experiment, in the slot
    order of a sign quadruple (a_x0, a_x1, b_y0, b_y1): one ``(station,
    setting, remote settings, pair, other pair)`` per station setting,
    whose two pairs differ only in the remote setting."""
    (x0, x1), (y0, y1) = settings_a, settings_b
    p00, p01, p10, p11 = pair_order(settings_a, settings_b)
    return (("A", x0, (y0, y1), p00, p01), ("A", x1, (y0, y1), p10, p11),
            ("B", y0, (x0, x1), p00, p10), ("B", y1, (x0, x1), p01, p11))


# The odd-minus sign patterns of four correlators, in report order.
_CHSH_SIGNS = tuple(("".join("+" if s > 0 else "-" for s in signs), signs)
                    for signs in product((1, -1), repeat=4) if signs.count(-1) % 2 == 1)


def chsh_values(correlators) -> list[tuple[str, object]]:
    """All eight odd-minus sign combinations of four correlators.

    Returns ``(pattern, S)`` pairs in a fixed order; pattern ids spell the
    signs, e.g. ``"++-+"``.  Four Fractions are summed as integer
    numerators over one common denominator, one Fraction per S; any other
    correlators (floats, ints, a mix) are summed left to right from the
    int 0.
    """
    if all(type(e) is Fraction for e in correlators):
        d = math.lcm(*(e.denominator for e in correlators))
        nums = [e.numerator * (d // e.denominator) for e in correlators]
        return [(pattern, Fraction(sum(s * n for s, n in zip(signs, nums)), d))
                for pattern, signs in _CHSH_SIGNS]
    return [(pattern, sum(s * e for s, e in zip(signs, correlators)))
            for pattern, signs in _CHSH_SIGNS]


def _outcome_grid(model: ExperimentModel, comp: int, setting) -> tuple[dict, np.ndarray]:
    """``(columns, grid)``: the response of station ``comp`` (0 for A, 1 for
    B) at ``setting``, tabulated once per model on first use.  ``columns``
    maps each instrument value the response must cover (`_instrument_values`)
    to its column; ``grid[i, columns[v]]`` is the int8 outcome for the
    station's half of source atom i and instrument value v.

    The grid is filled in one pass: the response, table or plain callable
    alike, is called once per cell, row by row, over the product of the
    source atoms' halves and the instrument values, into one flat list
    that becomes the grid.  The outcomes of a plain-callable response are
    checked on that list (InvalidModel)."""
    key = comp, setting
    if key not in model._grids:
        resp = (model.responses_a, model.responses_b)[comp][setting]
        values = list(_instrument_values(model, comp, setting))
        halves = [atom[comp] for atom in model.source.atoms]
        outcomes = list(starmap(resp, product(halves, values)))
        # validate_model validates a table's outcomes, not a callable's
        if not isinstance(resp, ResponseTable) and (
                bad := _outcome_violations(model.variant, "AB"[comp], setting, outcomes)):
            raise InvalidModel(bad)
        grid = np.array(outcomes, dtype=np.int8).reshape(len(halves), len(values))
        model._grids[key] = {v: j for j, v in enumerate(values)}, grid
    return model._grids[key]


def _build_tables(model: ExperimentModel) -> dict:
    """Every pair's exact P(a, b | x, y) and its `table_sums`, one pass
    over a valid finite model, reading the responses from the outcome grids.

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


def _cached_exact(model: ExperimentModel, sp: SettingPair) -> tuple:
    """``(numerators, d, table_sums(numerators))`` of a declared pair of a
    valid model, from the model's cache; NonFiniteSpace for a model without
    one."""
    if model.variant is ModelVariant.QUANTUM:
        raise NonFiniteSpace("quantum reference models have no lambda space; "
                             "use the analytic result")
    if not model.is_finite():
        raise NonFiniteSpace("model declares sampler-only lambda spaces; "
                             "only Monte Carlo evaluation is available")
    return model._tables[sp]


def outcome_table(model: ExperimentModel, sp: SettingPair) -> list[list[Fraction]]:
    """Exact P(a, b | x, y) over the model's lambda spaces, as a fresh 3x3
    list indexed ``[a + 1][b + 1]``.  The tables of all pairs are built on
    first use and cached on the model (see `_build_tables`)."""
    ensure_valid(model)
    sp = _check_pair(model, sp)
    numerators, d, _ = _cached_exact(model, sp)
    return [[Fraction(n, d) for n in row] for row in numerators]


def _exact(model: ExperimentModel, sp: SettingPair, post: bool) -> ExactResult:
    ensure_valid(model)
    sp = _check_pair(model, sp)
    if model.variant is ModelVariant.QUANTUM:
        return _quantum_exact(model, sp)
    raw, selected = _cached_exact(model, sp)[2]
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


# ---------------------------------------------------------------------------
# Monte Carlo


def _draw_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, len(cdf) - 1)


class _PairSampler:
    """Vectorised outcome sampler for one (model, setting pair).

    The per-trial draw order is fixed: source, then station A's instrument
    (or the joint instrument pair), then station B's.  Quantum models draw
    a sign and then a same-or-different indicator.  The fast path indexes
    the model's outcome grids of the pair's two responses (tabulated once
    per model and setting, see `_outcome_grid`) with index arrays, one
    uniform column per space, whether the responses are tables or plain
    callables; only a pair with a sampler space is evaluated per draw.
    """

    def __init__(self, model: ExperimentModel, sp: SettingPair):
        ensure_valid(model)
        self.sp = sp = _check_pair(model, sp)
        self.variant = model.variant
        if self.variant is ModelVariant.QUANTUM:
            delta = model.angles_a[sp.x] - model.angles_b[sp.y]
            self.p_same = math.cos(delta) ** 2
            self.fast = True
            return
        self.resp_a = model.responses_a[sp.x]
        self.resp_b = model.responses_b[sp.y]
        if self.variant is ModelVariant.M3:
            self.spaces = [model.source, model.instruments_joint[sp]]
        else:
            self.spaces = [model.source, model.instruments_a[sp.x], model.instruments_b[sp.y]]
        self.cdfs = [s.cdf() if s.finite else None for s in self.spaces]
        self.fast = all(s.finite for s in self.spaces)
        if self.fast:
            # Columns of each grid in the order of the atoms of the space
            # that draws the station's instrument value.
            if self.variant is ModelVariant.M3:
                values = tuple(zip(*self.spaces[1].atoms))
            else:
                values = self.spaces[1].atoms, self.spaces[2].atoms
            grids = _outcome_grid(model, 0, sp.x), _outcome_grid(model, 1, sp.y)
            self.mat_a, self.mat_b = (grid[:, [columns[v] for v in vs]]
                                      for (columns, grid), vs in zip(grids, values))

    def draw(self, generator: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if not self.fast:
            return self._draw_slow(generator, n)
        spaces = 2 if self.variant in (ModelVariant.M3, ModelVariant.QUANTUM) else 3
        return self.outcomes_from_uniforms(*(generator.random(n) for _ in range(spaces)))

    def outcomes_from_uniforms(self, u_source: np.ndarray, u_inst_a: np.ndarray,
                               u_inst_b: "np.ndarray | None" = None
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Fast-path outcomes from uniforms, one column per space in draw
        order; ``u_inst_b`` is unused by m3 and quantum models.

        The stream generator passes columns of its per-window uniforms;
        only finite models (and quantum models) support this entry point.
        """
        if self.variant is ModelVariant.QUANTUM:
            sign = np.where(u_source < 0.5, 1, -1).astype(np.int8)
            same = u_inst_a < self.p_same
            return sign, np.where(same, sign, -sign).astype(np.int8)
        # One instrument index for m3 (the joint atom), two for product models.
        i_src, *j = (_draw_indices(cdf, u)
                     for cdf, u in zip(self.cdfs, (u_source, u_inst_a, u_inst_b)))
        return self.mat_a[i_src, j[0]], self.mat_b[i_src, j[-1]]

    def _draw_slow(self, generator: np.random.Generator, n: int):
        drawn = []
        for space, cdf in zip(self.spaces, self.cdfs):
            if cdf is None:
                values = np.empty(n, dtype=object)     # a draw of the wrong length fails
                for i, value in enumerate(space.draw(generator, n)):
                    values[i] = value
            else:
                values = [space.atoms[i] for i in _draw_indices(cdf, generator.random(n))]
            drawn.append(values)
        src, *inst = drawn
        # A joint space draws (lx, ly) pairs; product spaces draw lx and ly.
        inst = inst[0] if len(inst) == 1 else zip(*inst)
        ab = [(self.resp_a(s[0], i[0]), self.resp_b(s[1], i[1])) for s, i in zip(src, inst)]
        for k, (station, setting) in enumerate((("A", self.sp.x), ("B", self.sp.y))):
            if bad := _outcome_violations(self.variant, station, setting, [o[k] for o in ab]):
                raise InvalidModel(bad)
        arr = np.array(ab, dtype=np.int8)
        return arr[:, 0], arr[:, 1]


def sample_trial(model: ExperimentModel, sp: SettingPair,
                 generator: np.random.Generator) -> tuple[Outcome, Outcome]:
    """Draw one trial with the caller's generator; deterministic given its state."""
    a, b = _PairSampler(model, sp).draw(generator, 1)
    return int(a[0]), int(b[0])


def simulate_trials(model: ExperimentModel, sp: SettingPair, n: int,
                    master_seed: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Draw n trials for one setting pair under the chunked seeding contract.

    Trial i depends only on (master_seed, setting pair, i): results are
    bit-identical across runs and worker counts, and a prefix of a longer
    run equals the shorter run.
    """
    sampler = _PairSampler(model, sp)
    sp = sampler.sp
    ix = model.settings_a.index(sp.x)
    iy = model.settings_b.index(sp.y)
    a = np.empty(n, dtype=np.int8)
    b = np.empty(n, dtype=np.int8)

    def fill(chunk_index, start, stop):
        gen = _rng.chunk_generator(master_seed, (_rng.PURPOSE_TRIALS, ix, iy), chunk_index)
        # Always draw a full chunk and slice: trial values must not depend
        # on where the requested range ends.
        full_a, full_b = sampler.draw(gen, _rng.CHUNK)
        a[start:stop] = full_a[: stop - start]
        b[start:stop] = full_b[: stop - start]

    _rng.map_chunks(fill, n, workers=workers)
    return a, b
