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
P(a, b | x, y) over (a, b) in {-1, 0, +1}^2: enumeration fills it with
exact probabilities (`outcome_table`), data estimation with counts, and
`table_stats` turns either into the reported numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
VALID_OUTCOMES = (-1, 0, 1)

# Absolute tolerance on probability normalisation.
PROB_TOL = 1e-9


class SettingPair(NamedTuple):
    """One choice of local settings, station A first."""

    x: Hashable
    y: Hashable


def _as_fraction(value) -> Fraction:
    """Exact rational form of a probability-like input.

    Floats convert to their exact binary value, so arithmetic downstream is
    exact whatever the caller provides.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        return Fraction(float(value))
    if isinstance(value, str):
        return Fraction(value)
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

    @property
    def total(self) -> Fraction:
        return sum(self.probs, Fraction(0))

    def violations(self, label: str = "distribution") -> list[str]:
        out = []
        if any(p < 0 for p in self.probs):
            out.append(f"{label}: negative probability")
        if abs(float(self.total) - 1.0) > PROB_TOL:
            out.append(f"{label}: probabilities sum to {float(self.total)!r}, not 1")
        if len(set(self.atoms)) != len(self.atoms):
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

    def __init__(self, mapping: dict):
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


@dataclass(frozen=True)
class ExperimentModel:
    """Complete generative description of one experiment.

    ``source`` is a distribution over pairs ``(l1, l2)``.  For product
    variants, ``instruments_a[x]`` and ``instruments_b[y]`` give the
    per-setting instrument distributions; for ``m3``,
    ``instruments_joint[(x, y)]`` gives a joint distribution over pairs
    ``(lx, ly)`` per setting pair.  ``responses_a[x]`` maps ``(l1, lx)`` to
    an outcome, ``responses_b[y]`` maps ``(l2, ly)``.  Quantum models carry
    analyzer angles instead and no hidden spaces.  Instances are treated as
    immutable once validated.
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
        return [SettingPair(x, y) for x in self.settings_a for y in self.settings_b]

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

    @classmethod
    def product_model(cls, variant, settings_a, settings_b, source,
                      instruments_a, instruments_b, responses_a, responses_b,
                      name=""):
        return cls(
            variant=ModelVariant(variant),
            settings_a=tuple(settings_a),
            settings_b=tuple(settings_b),
            source=source,
            instruments_a=dict(instruments_a),
            instruments_b=dict(instruments_b),
            responses_a=dict(responses_a),
            responses_b=dict(responses_b),
            name=name,
        )

    @classmethod
    def correlated_instruments_model(cls, settings_a, settings_b, source,
                                     instruments_joint, responses_a, responses_b,
                                     name=""):
        joints = {SettingPair(*k): v for k, v in dict(instruments_joint).items()}
        return cls(
            variant=ModelVariant.M3,
            settings_a=tuple(settings_a),
            settings_b=tuple(settings_b),
            source=source,
            instruments_joint=joints,
            responses_a=dict(responses_a),
            responses_b=dict(responses_b),
            name=name,
        )

    @classmethod
    def quantum_model(cls, settings_a, settings_b, angles_a, angles_b, name=""):
        return cls(
            variant=ModelVariant.QUANTUM,
            settings_a=tuple(settings_a),
            settings_b=tuple(settings_b),
            angles_a=dict(angles_a),
            angles_b=dict(angles_b),
            name=name,
        )


@dataclass(frozen=True)
class ExactResult:
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
    diagnosed.
    """
    v: list[str] = []
    if not isinstance(model.variant, ModelVariant):
        return [f"unknown variant {model.variant!r}"]
    if len(model.settings_a) < 2 or len(set(model.settings_a)) != len(model.settings_a):
        v.append("settings_a: need at least two distinct setting labels")
    if len(model.settings_b) < 2 or len(set(model.settings_b)) != len(model.settings_b):
        v.append("settings_b: need at least two distinct setting labels")

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
        return v

    _check_space(model.source, "source", v, want_pairs=True)

    if model.variant is ModelVariant.M3:
        joints = model.instruments_joint or {}
        for x in model.settings_a:
            for y in model.settings_b:
                sp = SettingPair(x, y)
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
                bad = sorted({o for o in resp.outcomes() if o not in VALID_OUTCOMES})
                if bad:
                    v.append(f"responses {station}[{s!r}]: outcomes outside -1/0/+1: {bad}")
                if model.variant is ModelVariant.LHVM and 0 in resp.outcomes():
                    v.append(f"responses {station}[{s!r}]: lhvm responses must never output 0")
            elif not callable(resp):
                v.append(f"responses {station}[{s!r}]: not a table or callable")

    # Table totality over the declared finite spaces.
    if isinstance(model.source, DiscreteDistribution) and all(
        isinstance(a, tuple) and len(a) == 2 for a in model.source.atoms
    ):
        src_a = {a[0] for a in model.source.atoms}
        src_b = {a[1] for a in model.source.atoms}
        for station, resps, settings, src_vals in (
            ("A", model.responses_a or {}, model.settings_a, src_a),
            ("B", model.responses_b or {}, model.settings_b, src_b),
        ):
            for s in settings:
                resp = resps.get(s)
                if not isinstance(resp, ResponseTable):
                    continue
                for inst_vals in _instrument_values(model, station, s):
                    for sv in src_vals:
                        for iv in inst_vals:
                            if (sv, iv) not in resp.mapping:
                                v.append(
                                    f"responses {station}[{s!r}]: no entry for ({sv!r}, {iv!r})"
                                )
    return v


def _instrument_values(model, station, setting):
    """Sets of instrument atoms that the response for (station, setting) must cover."""
    if model.variant is ModelVariant.M3:
        comp = 0 if station == "A" else 1
        pairs = model.pairs()
        loc = 0 if station == "A" else 1
        for sp in pairs:
            if sp[loc] != setting:
                continue
            joint = (model.instruments_joint or {}).get(sp)
            if isinstance(joint, DiscreteDistribution) and all(
                isinstance(a, tuple) and len(a) == 2 for a in joint.atoms
            ):
                yield {a[comp] for a in joint.atoms}
    else:
        insts = (model.instruments_a if station == "A" else model.instruments_b) or {}
        space = insts.get(setting)
        if isinstance(space, DiscreteDistribution):
            yield set(space.atoms)


def ensure_valid(model: ExperimentModel) -> None:
    violations = validate_model(model)
    if violations:
        raise InvalidModel(violations)


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


def empty_table(zero=0) -> list[list]:
    """A 3x3 outcome table, indexed ``[a + 1][b + 1]``, filled with ``zero``."""
    return [[zero] * 3 for _ in range(3)]


_CELLS = tuple((a, b) for a in VALID_OUTCOMES for b in VALID_OUTCOMES)

# The three reported statistics of a trial, in report order: A*B, A, B.
STATISTICS = (lambda a, b: a * b, lambda a, b: a, lambda a, b: b)


def table_sum(table, f, post: bool = False):
    """Sum of ``table[a+1][b+1] * f(a, b)`` over the cells of an outcome table.

    With ``post`` only cells where both outcomes are non-zero count.  Integer
    tables give integer sums and Fraction tables exact rational sums.
    """
    return sum(table[a + 1][b + 1] * f(a, b) for a, b in _CELLS if not post or a * b)


class TableStats(NamedTuple):
    raw: tuple            # (e_ab, e_a, e_b) over every trial, zeros kept
    post: "tuple | None"  # the same over trials with A*B != 0; None if there are none
    c: object             # n_post / n_raw
    n_raw: object         # total count or probability mass
    n_post: object        # count or mass with both outcomes non-zero


def table_stats(table) -> TableStats:
    """Raw and post-selected means of one outcome table, in closed form:
    floats on integer counts, exact rationals on Fraction weights."""
    one = lambda a, b: 1  # noqa: E731
    n_raw = table_sum(table, one)
    n_post = table_sum(table, one, post=True)
    raw = tuple(table_sum(table, f) / n_raw for f in STATISTICS)
    post = (tuple(table_sum(table, f, post=True) / n_post for f in STATISTICS)
            if n_post else None)
    return TableStats(raw, post, n_post / n_raw, n_raw, n_post)


def outcome_table(model: ExperimentModel, sp: SettingPair) -> list[list[Fraction]]:
    """Exact P(a, b | x, y) over the model's lambda spaces.

    Product variants factorise per source atom,
    P(a, b) = sum_src p * P_A(a | l1, x) * P_B(b | l2, y); ``m3`` models sum
    the joint instrument weights per source atom first.
    """
    ensure_valid(model)
    sp = _check_pair(model, sp)
    if model.variant is ModelVariant.QUANTUM:
        raise NonFiniteSpace("quantum reference models have no lambda space; "
                             "use the analytic result")
    if not model.is_finite():
        raise NonFiniteSpace("model declares sampler-only lambda spaces; "
                             "only Monte Carlo evaluation is available")
    resp_a = model.responses_a[sp.x]
    resp_b = model.responses_b[sp.y]
    table = empty_table(Fraction(0))
    for (l1, l2), p_src in model.source.items():
        if model.variant is ModelVariant.M3:
            given = empty_table()
            for (lx, ly), p_i in model.instruments_joint[sp].items():
                given[resp_a(l1, lx) + 1][resp_b(l2, ly) + 1] += p_i
        else:
            p_a, p_b = [0, 0, 0], [0, 0, 0]     # P(outcome | l1, x), P(outcome | l2, y)
            for lx, p_x in model.instruments_a[sp.x].items():
                p_a[resp_a(l1, lx) + 1] += p_x
            for ly, p_y in model.instruments_b[sp.y].items():
                p_b[resp_b(l2, ly) + 1] += p_y
            given = [[pa * pb for pb in p_b] for pa in p_a]
        for row, given_row in zip(table, given):
            for j, p in enumerate(given_row):
                if p:
                    row[j] += p_src * p
    return table


def _exact(model: ExperimentModel, sp: SettingPair, post: bool) -> ExactResult:
    sp = SettingPair(*sp)
    if model.variant is ModelVariant.QUANTUM:
        ensure_valid(model)
        return _quantum_exact(model, _check_pair(model, sp))
    stats = table_stats(outcome_table(model, sp))
    if not post:
        return ExactResult(*stats.raw, c_xy=stats.c)
    if stats.post is None:
        raise DegenerateConditioning(
            f"conditioning event has probability zero for pair {tuple(sp)}"
        )
    return ExactResult(*stats.post, c_xy=stats.c)


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


class _SpaceSampler:
    """Draws one lambda space, as indices (finite) or objects (sampler)."""

    def __init__(self, space):
        self.finite = getattr(space, "finite", False)
        self.space = space
        if self.finite:
            self._cdf = space.cdf()
            self._atoms = np.empty(len(space.atoms), dtype=object)
            for i, a in enumerate(space.atoms):
                self._atoms[i] = a

    def draw_values(self, generator: np.random.Generator, n: int) -> np.ndarray:
        if self.finite:
            return self._atoms[_draw_indices(self._cdf, generator.random(n))]
        values = np.empty(n, dtype=object)
        drawn = self.space.draw(generator, n)
        for i, value in enumerate(drawn):
            values[i] = value
        return values


def _response_matrix(resp: ResponseTable, src_components, inst_atoms) -> np.ndarray:
    out = np.empty((len(src_components), len(inst_atoms)), dtype=np.int8)
    for i, sv in enumerate(src_components):
        for j, iv in enumerate(inst_atoms):
            out[i, j] = resp(sv, iv)
    return out


class _PairSampler:
    """Vectorised outcome sampler for one (model, setting pair).

    The per-trial draw order is fixed: source, then station A's instrument
    (or the joint instrument pair), then station B's.  Quantum models draw
    a sign and then a same-or-different indicator.  The fast path applies
    precomputed response matrices to index arrays, one uniform column per
    space; models with sampler spaces or plain-callable responses fall back
    to per-element evaluation.
    """

    def __init__(self, model: ExperimentModel, sp: SettingPair):
        ensure_valid(model)
        self.sp = sp = _check_pair(model, sp)
        self.model = model
        self.variant = model.variant
        if self.variant is ModelVariant.QUANTUM:
            delta = model.angles_a[sp.x] - model.angles_b[sp.y]
            self.p_same = math.cos(delta) ** 2
            self.fast = True
            return
        self.resp_a = model.responses_a[sp.x]
        self.resp_b = model.responses_b[sp.y]
        self.src = _SpaceSampler(model.source)
        if self.variant is ModelVariant.M3:
            self.joint = _SpaceSampler(model.instruments_joint[sp])
            self.inst_a = self.inst_b = None
        else:
            self.joint = None
            self.inst_a = _SpaceSampler(model.instruments_a[sp.x])
            self.inst_b = _SpaceSampler(model.instruments_b[sp.y])
        self.fast = (
            self.src.finite
            and isinstance(self.resp_a, ResponseTable)
            and isinstance(self.resp_b, ResponseTable)
            and all(s is None or s.finite for s in (self.joint, self.inst_a, self.inst_b))
        )
        if self.fast:
            src_atoms = model.source.atoms
            l1 = [a[0] for a in src_atoms]
            l2 = [a[1] for a in src_atoms]
            if self.variant is ModelVariant.M3:
                j_atoms = model.instruments_joint[sp].atoms
                self.mat_a = _response_matrix(self.resp_a, l1, [a[0] for a in j_atoms])
                self.mat_b = _response_matrix(self.resp_b, l2, [a[1] for a in j_atoms])
            else:
                self.mat_a = _response_matrix(self.resp_a, l1, model.instruments_a[sp.x].atoms)
                self.mat_b = _response_matrix(self.resp_b, l2, model.instruments_b[sp.y].atoms)

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

        The stream generator passes columns of its fixed per-window uniform
        layout; only table-backed finite models (and quantum models) support
        this entry point.
        """
        if self.variant is ModelVariant.QUANTUM:
            sign = np.where(u_source < 0.5, 1, -1).astype(np.int8)
            same = u_inst_a < self.p_same
            return sign, np.where(same, sign, -sign).astype(np.int8)
        if not self.fast:
            raise NonFiniteSpace("sampler-backed models cannot use fixed uniform columns")
        i_src = _draw_indices(self.src._cdf, u_source)
        if self.joint is not None:
            j = _draw_indices(self.joint._cdf, u_inst_a)
            return self.mat_a[i_src, j], self.mat_b[i_src, j]
        j_a = _draw_indices(self.inst_a._cdf, u_inst_a)
        j_b = _draw_indices(self.inst_b._cdf, u_inst_b)
        return self.mat_a[i_src, j_a], self.mat_b[i_src, j_b]

    def _draw_slow(self, generator: np.random.Generator, n: int):
        src = self.src.draw_values(generator, n)
        if self.joint is not None:
            inst = self.joint.draw_values(generator, n)
            ab = [(self.resp_a(s[0], i[0]), self.resp_b(s[1], i[1]))
                  for s, i in zip(src, inst)]
        else:
            ia = self.inst_a.draw_values(generator, n)
            ib = self.inst_b.draw_values(generator, n)
            ab = [
                (self.resp_a(s[0], va), self.resp_b(s[1], vb))
                for s, va, vb in zip(src, ia, ib)
            ]
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
