"""The numpy-free table algebra that models, estimates and coupling share.

For one setting pair (x, y) the quantities of interest are the raw
(unconditional) expectations of A, B and A*B, the detection rate
``c_xy = P(A*B != 0)``, and the post-selected expectations, i.e. the same
sums restricted to trials where both stations detected and divided by
``c_xy``.  Every one of them derives from the per-pair 3x3 outcome table
P(a, b | x, y) over (a, b) in {-1, 0, +1}^2, held as integers: enumeration
(``core``) fills it with numerators over the spaces' common denominator d,
data estimation (``estimators``) with counts.  `table_sums` reads the nine
cells once and returns the integer counts and sums that every reported
number is a quotient of; enumeration divides them as Fractions,
estimation as floats.

`pair_order` (station A's setting first) and `marginal_contrasts` (a
station's marginal at one setting, across the two remote settings) are
defined here once: the no-signalling deltas of `estimators.no_signalling`
and the marginal-consistency certificate and moment rows of `coupling`
compare the same four contrasts.  `chsh_values` sums four correlators
under the eight odd-minus sign patterns, and `DiscreteDistribution` holds
a finite distribution with exact rational weights, a model's spaces and a
coupling's witness alike.

Nothing here imports numpy, so ``coupling`` and ``estimators``, which
import only this module of the model layer, load without it.  ``core``
re-exports every name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Hashable, NamedTuple, Sequence

# Absolute tolerance on probability normalisation.
PROB_TOL = 1e-9


class SettingPair(NamedTuple):
    """One choice of local settings, station A first."""

    x: Hashable
    y: Hashable


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
    exact whatever the caller provides.  Anything else, a string, a bool or
    a ``np.timedelta64`` (a numpy integer subclass) included, is a
    TypeError; model files read probability text with
    ``modelio._decode_probability``.  A numpy scalar exists only once numpy
    is imported, so its types are looked up in ``sys.modules``, and only
    for a value that is none of the built-in types.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int or kind is float:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    np = sys.modules.get("numpy")
    if (isinstance(value, int) and not isinstance(value, bool)
            or np is not None and isinstance(value, np.integer)
            and not isinstance(value, np.timedelta64)):
        return Fraction(int(value))
    if isinstance(value, float) or np is not None and isinstance(value, np.floating):
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
