"""Exact quantum probabilities for compatible outcome assignments on the GHZ state.

Three independent routes to the same numbers:

* ``qm_probability`` projects the GHZ state vector with exact Gaussian-integer
  arithmetic (ground truth for every context);
* ``ghz_triad_probability`` is the closed form (1 +/- product)/8 for the four
  triad measurements;
* ``rule_table_probability`` encodes the verbal probability rules (singles 1/2,
  pairs 1/4, z-correlation cases, triple cases).

Keeping the state vector unnormalized (integer entries, squared norm 2) makes
every probability an exact dyadic rational, so agreement between the routes is
tested with ``==``, never with tolerances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .state_space import Axis, MeasurementContext, Site, Triad, _Value

# A Gaussian integer as (real, imaginary); spin operators have entries in
# {0, +/-1, +/-i}, so projecting an integer vector stays integral.
GaussianInt = tuple[int, int]


# The GHZ vector over z-basis bitstrings, unnormalized.  Particle 1 is the
# most significant bit of the 3-bit index; bit value 0 encodes outcome +1.
# Amplitude +1 at index 0 (+,+,+), -1 at index 7 (-,-,-), 0 elsewhere.
GHZ_AMPLITUDES: tuple[GaussianInt, ...] = ((1, 0),) + ((0, 0),) * 6 + ((-1, 0),)
GHZ_SQUARED_NORM = 2


class OutcomeAssignment(_Value):
    """Signs assigned to exactly the sites of a measurement context."""

    _fields = ("context", "outcomes")

    def __init__(self, context: MeasurementContext, outcomes: tuple[int, ...]) -> None:
        if len(outcomes) != len(context.sites):
            raise ValueError(f"{len(outcomes)} outcomes for {len(context.sites)} sites")
        if any(v not in (-1, +1) for v in outcomes):
            raise ValueError(f"outcomes must be +/-1: {outcomes!r}")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "outcomes", outcomes)

    def items(self) -> Iterator[tuple[Site, int]]:
        return zip(self.context.sites, self.outcomes)

    @classmethod
    def of(cls, signs: dict[Site, int]) -> "OutcomeAssignment":
        """Build from a site->sign mapping (sites are put in canonical order)."""
        context = MeasurementContext(tuple(signs))
        return cls(context, tuple(signs[s] for s in context.sites))

    @property
    def label(self) -> str:
        return ",".join(f"{s.label}={v:+d}" for s, v in self.items())


def _apply_eigenop(
    amps: list[GaussianInt], axis: Axis, particle: int, sign: int
) -> list[GaussianInt]:
    """Apply (I + sign*sigma_axis) on one particle to an 8-vector."""
    out: list[GaussianInt] = [(0, 0)] * 8
    mask = 1 << (3 - particle)
    for lo in range(8):
        if lo & mask:
            continue
        hi = lo | mask  # lo: outcome +1 at this particle, hi: outcome -1
        (ar, ai), (br, bi) = amps[lo], amps[hi]
        if axis is Axis.Z:
            out[lo] = (ar * (1 + sign), ai * (1 + sign))
            out[hi] = (br * (1 - sign), bi * (1 - sign))
        elif axis is Axis.X:
            out[lo] = (ar + sign * br, ai + sign * bi)
            out[hi] = (br + sign * ar, bi + sign * ai)
        else:  # Axis.Y: off-diagonal entries are -i (upper) and +i (lower)
            out[lo] = (ar + sign * bi, ai - sign * br)
            out[hi] = (br - sign * ai, bi + sign * ar)
    return out


def qm_probability(assign: OutcomeAssignment) -> Fraction:
    """Probability of the assignment on the GHZ state, from the state vector.

    Computes <v|prod(I + sign*sigma)|v> / (2^m * <v|v>) with v the integer
    GHZ vector and m the number of measured sites; exact by construction.
    """
    amps = list(GHZ_AMPLITUDES)
    for site, sign in assign.items():
        amps = _apply_eigenop(amps, site.axis, site.particle, sign)
    # <v|w> with v = e0 - e7, both entries real.
    re = amps[0][0] - amps[7][0]
    im = amps[0][1] - amps[7][1]
    if im != 0:  # pragma: no cover - projectors are Hermitian, v is real
        raise ArithmeticError(f"non-real expectation for {assign.context.label}")
    return Fraction(re, 2 ** len(assign.outcomes) * GHZ_SQUARED_NORM)


def ghz_triad_probability(triad: Triad, outcomes: tuple[int, int, int]) -> Fraction:
    """Closed-form triad probability (1 + s*product)/8, s = -1 only for triad IV."""
    a, b, c = outcomes
    return Fraction(1 + triad.required_sign * a * b * c, 8)


_TRIAD_BY_SITES = {frozenset(t.sites): t for t in Triad}


def rule_table_probability(assign: OutcomeAssignment) -> Fraction:
    """Probability of the assignment according to the verbal rule list.

    Pure-z and pure-x/y contexts follow the rules directly; any context mixing
    z with x/y sites is delegated to the state-vector route, which settles the
    two-z-plus-one case (the z pair decides: 1/4 when it agrees, 0 otherwise).
    """
    axes = {site.axis for site, _ in assign.items()}
    n = len(assign.outcomes)
    if axes == {Axis.Z}:
        if n == 1:
            return Fraction(1, 2)
        same = len(set(assign.outcomes)) == 1
        return Fraction(1, 2) if same else Fraction(0)
    if Axis.Z in axes:
        return qm_probability(assign)
    # pure x/y selections
    if n == 1:
        return Fraction(1, 2)
    if n == 2:
        return Fraction(1, 4)
    triad = _TRIAD_BY_SITES.get(frozenset(assign.context.sites))
    if triad is not None:
        return ghz_triad_probability(triad, assign.outcomes)  # type: ignore[arg-type]
    return Fraction(1, 8)


def outcome_assignments(context: MeasurementContext) -> list[OutcomeAssignment]:
    """All 2^n sign assignments on a context, in canonical order: +1 before -1, the
    first site most significant."""
    signs = itertools.product((+1, -1), repeat=len(context.sites))
    return [OutcomeAssignment(context, outcomes) for outcomes in signs]
