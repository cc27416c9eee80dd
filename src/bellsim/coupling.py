"""Joint-distribution feasibility for a 2x2 correlation experiment.

Observed statistics consist of four correlators E(A_x B_y) and eight
conditional marginals (each station's mean under each remote setting).
They admit a single joint distribution over the quadruple
(A_x0, A_x1, B_y0, B_y1) of +-1 variables, a probabilistic coupling,
exactly when a linear feasibility problem has a solution: find sixteen
non-negative atom weights summing to one that reproduce the four
singleton moments and the four pairwise moments.

Necessary conditions are checked by name so infeasibility always comes
with a certificate:

* marginal consistency: a coupling forces each station's marginal to be
  the same under both remote settings, so each of the four contrasts of
  `core.marginal_contrasts` must vanish (the no-signalling deltas that
  ``analysis.json`` reports are the same four contrasts);
* per-pair realizability: each pair (e_a, e_b, e_ab) must itself be a
  valid two-variable distribution, i.e. all four cells
  (1 + a*e_a + b*e_b + a*b*e_ab)/4 must be non-negative;
* the eight CHSH inequalities |S| <= 2.

Given the first two, the CHSH inequalities are also sufficient, which is
what `chsh_characterization` captures and what the randomized
cross-validation in the test suite exercises.

The solver is a self-contained textbook phase-one simplex with Bland's
rule.  It runs over floats by default and over exact rationals when
``exact=True``.  Float mode allows every check ``MOMENT_TOL``; exact mode
allows none: the contrasts must vanish, the phase-one optimum must be 0
and the CHSH and cell certificates compare rationals, so either verdict
is a theorem about the given rational inputs.  Each pivot lists the pivot
row's non-zero entries once and updates the other rows and the reduced
costs at those columns only; a skipped entry would have stayed as it is,
exactly for rationals and up to the sign of a float zero, which no
comparison, witness or residual reads.  In exact mode the tableau starts
on the integers it is given and each pivot divides by a Fraction, so every
value, pivot and solution is the all-Fraction tableau's.  The solver never
mutates its inputs, so the moment rows, the same for every spec, are built
once.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

from .core import (
    DiscreteDistribution,
    SettingPair,
    _as_fraction,
    chsh_values,
    marginal_contrasts,
    pair_order,
)
from .errors import BellsimError, ParseError
from .textio import _line_number, _read_ascii

# Atom order for witnesses: quadruples (a_x0, a_x1, b_y0, b_y1).
ATOMS = tuple(product((1, -1), repeat=4))

MOMENT_TOL = 1e-9


@dataclass(frozen=True, init=False)
class JointSpec:
    """The eight marginal numbers and four correlators under test.

    ``e_a[(x, y)]`` is station A's marginal at setting x measured while the
    remote station used y (and symmetrically for ``e_b``); a coupling can
    only exist when that dependence on the remote setting is absent.
    Values are real numbers, floats or exact rationals, one per pair.
    """

    settings_a: tuple
    settings_b: tuple
    e_ab: dict
    e_a: dict
    e_b: dict

    def __init__(self, settings_a, settings_b, e_ab, e_a, e_b):
        settings_a = tuple(settings_a)
        settings_b = tuple(settings_b)
        if any(len(s) != 2 or s[0] == s[1] for s in (settings_a, settings_b)):
            raise BellsimError("a joint spec needs exactly two distinct settings per station")
        pairs = pair_order(settings_a, settings_b)
        tables = {}
        for label, table in (("e_ab", e_ab), ("e_a", e_a), ("e_b", e_b)):
            table = {SettingPair(*k): v for k, v in dict(table).items()}
            for sp in table:
                if sp not in pairs:
                    raise BellsimError(f"{label}: entry for pair {tuple(sp)} outside the "
                                       f"settings {settings_a} x {settings_b}")
            for sp in pairs:
                if sp not in table:
                    raise BellsimError(f"{label}: missing entry for pair {tuple(sp)}")
                v = table[sp]
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise BellsimError(f"{label}{tuple(sp)} = {v!r} is not a number")
                if not -1 <= float(v) <= 1:
                    raise BellsimError(f"{label}{tuple(sp)} = {float(v)} outside [-1, 1]")
            tables[label] = table
        object.__setattr__(self, "settings_a", settings_a)
        object.__setattr__(self, "settings_b", settings_b)
        object.__setattr__(self, "e_ab", tables["e_ab"])
        object.__setattr__(self, "e_a", tables["e_a"])
        object.__setattr__(self, "e_b", tables["e_b"])

    def pairs(self) -> list[SettingPair]:
        return pair_order(self.settings_a, self.settings_b)

    @classmethod
    def from_correlation_set(cls, cs) -> "JointSpec":
        return cls.from_exact_results(cs.pairs, cs.settings_a, cs.settings_b)

    @classmethod
    def from_exact_results(cls, results: dict, settings_a, settings_b) -> "JointSpec":
        return cls(settings_a, settings_b,
                   {sp: r.e_ab for sp, r in results.items()},
                   {sp: r.e_a for sp, r in results.items()},
                   {sp: r.e_b for sp, r in results.items()})


@dataclass(frozen=True)
class CouplingResult:
    feasible: bool
    witness: "DiscreteDistribution | None"   # over the 16 sign quadruples
    certificate: "str | None"                # named violated constraint
    residual: "float | None"                 # phase-one optimum (L1 mismatch)


def _arithmetic(exact: bool):
    """The number type a check computes in and the tolerance it allows."""
    return (_as_fraction, 0) if exact else (float, MOMENT_TOL)


def marginal_consistency(spec: JointSpec, exact: bool = False) -> tuple[bool, list[str]]:
    """Does each station's marginal ignore the remote setting, within
    ``MOMENT_TOL``, or exactly with ``exact=True``?"""
    conv, tol = _arithmetic(exact)
    offenders = []
    for station, setting, _, sp0, sp1 in marginal_contrasts(spec.settings_a, spec.settings_b):
        name, table = ("e_a", spec.e_a) if station == "A" else ("e_b", spec.e_b)
        d = conv(table[sp0]) - conv(table[sp1])
        if abs(d) > tol:
            offenders.append(f"{name}({setting!r}) differs across remote settings by {float(d)}")
    return not offenders, offenders


def pairwise_realizability(spec: JointSpec, exact: bool = False) -> tuple[bool, list[str]]:
    """Is each pair's (e_a, e_b, e_ab) a valid two-variable distribution,
    with no cell below ``-MOMENT_TOL / 4``, or below 0 with ``exact=True``?"""
    conv, tol = _arithmetic(exact)
    offenders = []
    for sp in spec.pairs():
        ea = conv(spec.e_a[sp])
        eb = conv(spec.e_b[sp])
        eab = conv(spec.e_ab[sp])
        for a, b in product((1, -1), repeat=2):
            cell = (1 + a * ea + b * eb + a * b * eab) / 4
            if cell < -tol / 4:
                offenders.append(
                    f"pair {tuple(sp)}: cell (a={a:+d}, b={b:+d}) has probability {float(cell)}"
                )
    return not offenders, offenders


def chsh_statistics(spec: JointSpec, exact: bool = False) -> list[tuple[str, float]]:
    """All eight odd-minus sign combinations of the spec's correlators,
    summed as exact rationals with ``exact=True``."""
    values = [spec.e_ab[sp] for sp in spec.pairs()]
    return chsh_values([_as_fraction(v) for v in values] if exact else values)


def chsh_characterization(spec: JointSpec) -> bool:
    """True when all eight CHSH combinations satisfy |S| <= 2 + ``MOMENT_TOL``.

    With consistent marginals and realizable pairs this is equivalent to
    the existence of a coupling, so it serves as the closed-form oracle for
    the feasibility solver.
    """
    return all(abs(v) <= 2 + MOMENT_TOL for _, v in chsh_statistics(spec))


# --------------------------------------------------------------------------
# Phase-one simplex


def _exact_entry(value):
    """An exact tableau entry: an int as itself, any other number as a Fraction."""
    return value if type(value) is int else _as_fraction(value)


def solve_phase_one(rows, rhs, exact: bool = False):
    """Minimise the L1 constraint mismatch of ``A x = b, x >= 0``.

    Textbook phase-one: one artificial variable per equation, minimise
    their sum with Bland's rule (termination guaranteed).  Returns
    ``(optimum, x)``; the optimum is zero exactly when the system is
    feasible.  With ``exact=True`` all arithmetic is rational and the
    verdict is exact for the given inputs.  ``rows`` and ``rhs`` are
    never mutated: the tableau is a fresh copy.

    Each pivot lists the pivot row's non-zero entries ``(j, w)`` once, in
    both modes, and updates every other row with a non-zero factor, and
    the reduced costs, in place at those columns only.  A zero entry w
    would give ``v - f * w == v``: the same rational, or for floats the
    same value up to the sign of a zero.  That sign reaches no comparison
    (the ratio test and the entering rule compare values), no witness (its
    weights are ``v if v > 0 else 0``) and no residual (the optimum sums
    from the int 0, so it is never -0.0).

    With ``exact=True`` int entries of ``rows`` stay ints, as do the +-1
    signs, the identity entries and the costs; other entries and the
    targets become Fractions.  Each pivot divides by its element as a
    Fraction, so no quotient is a float and ``x`` holds Fractions, equal in
    value to an all-Fraction tableau's.
    """
    m = len(rhs)
    n = len(rows[0])
    if exact:
        conv, entry, zero, one, eps = _as_fraction, _exact_entry, 0, 1, 0
    else:
        conv, entry, zero, one, eps = float, float, 0.0, 1.0, 1e-12

    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        b = conv(b)
        sign = one if b >= 0 else -one
        tab.append([sign * entry(v) for v in row] + [one if j == i else zero for j in range(m)]
                   + [sign * b])
    basis = [n + i for i in range(m)]

    # Reduced costs c_j - z_j for cost c = (0,...,0, 1,...,1), rhs column left out.
    width = n + m
    reduced = [cost - sum(col) for cost, col in zip([zero] * n + [one] * m, zip(*tab))]
    below = -eps    # a column enters when its reduced cost is below this

    while True:
        entering = next((j for j, r in enumerate(reduced) if r < below), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for i, row in enumerate(tab):
            coeff = row[entering]
            if coeff > eps:
                ratio = row[-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise BellsimError("phase-one simplex became unbounded; inputs are malformed")
        prow = tab[pivot_row]
        piv = prow[entering]
        if exact:       # an int pivot would divide ints to floats
            piv = conv(piv)
        nonzero = [(j, v / piv) for j, v in enumerate(prow) if v]
        for j, w in nonzero:
            prow[j] = w
        for i, row in enumerate(tab):
            f = row[entering]
            if i != pivot_row and f != zero:
                for j, w in nonzero:
                    row[j] -= f * w
        f = reduced[entering]
        for j, w in nonzero:
            if j < width:       # the last column is the rhs
                reduced[j] -= f * w
        basis[pivot_row] = entering

    optimum = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    x = [conv(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return optimum, x


# The moment rows, shared by every spec: normalisation, the four singleton
# moments in the atoms' slot order, and at position 2i + j of the pair
# order the pairwise moment of slots i and 2 + j.
_MOMENT_ROWS = [
    [1] * len(ATOMS),
    *([atom[slot] for atom in ATOMS] for slot in range(4)),
    *([atom[i] * atom[2 + j] for atom in ATOMS] for i, j in product(range(2), repeat=2)),
]


def _moment_system(spec: JointSpec, exact: bool):
    """Rows and targets: normalisation, 4 singleton moments, 4 pairwise moments."""
    conv = _as_fraction if exact else float
    half = Fraction(1, 2) if exact else 0.5
    rhs = [conv(1)]
    # Per contrast, in the atoms' slot order, the average of its two sides
    # (they agree within tolerance once marginal_consistency has passed).
    for station, _, _, sp0, sp1 in marginal_contrasts(spec.settings_a, spec.settings_b):
        table = spec.e_a if station == "A" else spec.e_b
        rhs.append((conv(table[sp0]) + conv(table[sp1])) * half)
    rhs += [conv(spec.e_ab[sp]) for sp in spec.pairs()]
    return _MOMENT_ROWS, rhs


def coupling_feasibility(spec: JointSpec, exact: bool = False) -> CouplingResult:
    """Decide whether a joint distribution reproduces the spec's moments.

    Feasible results carry a witness distribution over the sixteen sign
    quadruples whose moments match the spec within ``MOMENT_TOL``, or
    exactly with ``exact=True``.  Infeasible results name a violated
    constraint: marginal consistency, a negative per-pair cell, or a CHSH
    combination beyond 2.  Infeasibility is a result, not an error.
    """
    _, tol = _arithmetic(exact)
    consistent, offenders = marginal_consistency(spec, exact)
    if not consistent:
        return CouplingResult(False, None, "marginal-consistency: " + offenders[0],
                              residual=None)
    rows, rhs = _moment_system(spec, exact)
    optimum, x = solve_phase_one(rows, rhs, exact=exact)
    residual = float(optimum)
    if optimum <= tol:
        probs = [v if v > 0 else 0 for v in x]
        witness = DiscreteDistribution(ATOMS, probs)
        return CouplingResult(True, witness, None, residual=residual)
    for pattern, value in chsh_statistics(spec, exact):
        size = abs(value if exact else float(value))
        if size > 2 + tol:
            return CouplingResult(False, None, f"CHSH pattern {pattern}: |S| = {float(size)} > 2",
                                  residual=residual)
    realizable, offenders = pairwise_realizability(spec, exact)
    if not realizable:
        return CouplingResult(False, None, "pairwise-realizability: " + offenders[0],
                              residual=residual)
    return CouplingResult(False, None,
                          f"no joint distribution matches the moments "
                          f"(L1 mismatch {residual})", residual=residual)


# --------------------------------------------------------------------------
# Moments of explicit joints


def joint_moments(dist: DiscreteDistribution, settings_a, settings_b) -> JointSpec:
    """Read a JointSpec off an explicit distribution over sign quadruples."""
    settings_a = tuple(settings_a)
    settings_b = tuple(settings_b)
    e_a = {}
    e_b = {}
    e_ab = {}
    for k, sp in enumerate(pair_order(settings_a, settings_b)):
        i, j = divmod(k, len(settings_b))
        e_a[sp] = sum(p * atom[i] for atom, p in dist.items())
        e_b[sp] = sum(p * atom[2 + j] for atom, p in dist.items())
        e_ab[sp] = sum(p * atom[i] * atom[2 + j] for atom, p in dist.items())
    return JointSpec(settings_a, settings_b, e_ab, e_a, e_b)


def lf_coupling() -> DiscreteDistribution:
    """Pushforward of a fair six-sided die through the quadruple map
    ``l -> (1**l, (-1)**l, 1**(l+1), (-1)**(l+1))`` for settings +-1.

    The result has exactly two atoms, (1, 1, 1, -1) and (1, -1, 1, 1),
    each with probability 1/2; its pairwise moments are (1, 0, 0, -1) in
    the pair order ((1,1), (1,-1), (-1,1), (-1,-1)).
    """
    weights: dict[tuple, Fraction] = {}
    for lam in range(1, 7):
        quad = (1 ** lam, (-1) ** lam, 1 ** (lam + 1), (-1) ** (lam + 1))
        weights[quad] = weights.get(quad, Fraction(0)) + Fraction(1, 6)
    return DiscreteDistribution(tuple(weights), tuple(weights.values()))


# --------------------------------------------------------------------------
# Randomized spec generation (the cross-validation workhorse)


def random_consistent_spec(generator, zero_marginals: bool = False) -> JointSpec:
    """Random spec over settings (1, 2) at each station satisfying the
    coupling problem's premises.

    Marginals are setting-independent by construction and each correlator
    is drawn uniformly inside its per-pair realizability envelope
    ``[|e_a + e_b| - 1, 1 - |e_a - e_b|]``, so the spec describes four
    genuine two-variable distributions and the CHSH criterion is an exact
    oracle for feasibility.
    """
    settings = (1, 2)
    if zero_marginals:
        ma = mb = {s: 0.0 for s in settings}
    else:
        ma = {x: generator.uniform(-1, 1) for x in settings}
        mb = {y: generator.uniform(-1, 1) for y in settings}
    pairs = pair_order(settings, settings)
    e_ab = {sp: generator.uniform(abs(ma[sp.x] + mb[sp.y]) - 1, 1 - abs(ma[sp.x] - mb[sp.y]))
            for sp in pairs}
    return JointSpec(settings, settings, e_ab,
                     {sp: ma[sp.x] for sp in pairs}, {sp: mb[sp.y] for sp in pairs})


# --------------------------------------------------------------------------
# Serialisation


def jointspec_to_dict(spec: JointSpec) -> dict:
    def table(t):
        return [[sp.x, sp.y, float(t[sp])] for sp in spec.pairs()]

    return {
        "settings_a": list(spec.settings_a),
        "settings_b": list(spec.settings_b),
        "e_ab": table(spec.e_ab),
        "e_a": table(spec.e_a),
        "e_b": table(spec.e_b),
    }


def jointspec_from_dict(data: dict) -> JointSpec:
    """A spec from a spec file's shape: ``[x, y, value]`` rows under
    ``e_ab``, ``e_a`` and ``e_b``, each pair at most once per table."""
    def table(label):
        entries = {}
        for x, y, v in data[label]:
            if SettingPair(x, y) in entries:
                raise BellsimError(f"{label}: repeated entry for pair {(x, y)}")
            entries[SettingPair(x, y)] = v
        return entries

    try:
        return JointSpec(tuple(data["settings_a"]), tuple(data["settings_b"]),
                         table("e_ab"), table("e_a"), table("e_b"))
    except (KeyError, TypeError, ValueError) as exc:
        raise BellsimError(f"malformed joint spec: {exc}") from exc


def save_jointspec(spec: JointSpec, path) -> None:
    Path(path).write_text(json.dumps(jointspec_to_dict(spec), indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


def load_jointspec(path) -> JointSpec:
    text = _read_ascii(Path(path))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", line_number=_line_number(text[:exc.pos]),
                         path=str(path)) from None
    return jointspec_from_dict(data)


def coupling_result_to_dict(result: CouplingResult) -> dict:
    out = {
        "feasible": result.feasible,
        "certificate": result.certificate,
        "residual": result.residual,
    }
    if result.witness is not None:
        out["witness"] = [
            {"atom": list(atom), "p": float(p)}
            for atom, p in result.witness.items()
        ]
    return out
