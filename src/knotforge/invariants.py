"""Numeric invariants of (-1)-surgery on a knot.

From the Conway polynomial we take a2 and c4 (the z^2 and z^4
coefficients); from the Jones polynomial the moments

    v_i(K) = d^i/dh^i V(K, e^h) |_{h=0} = V.moment(i).

These feed the Casson invariant lambda1 = -a2 and the second Ohtsuki
invariant

    lambda2 = v2/2 + v3/3 + (5/3)*v2^2 - 60*c4

of the homology sphere obtained by (-1)-surgery.  The polynomial
coefficients are integers and the moments and invariants exact rationals;
the distinguisher compares values with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import PDDiagram
from .laurent import LaurentPoly
from . import skein

__all__ = [
    "SurgeryInvariants",
    "c4",
    "casson_minus_one_surgery",
    "ohtsuki_lambda2",
    "surgery_invariants",
    "distinguish",
]


@dataclass(frozen=True)
class SurgeryInvariants:
    a2: int
    c4: int
    v2: Fraction
    v3: Fraction
    lambda1: Fraction
    lambda2: Fraction


def c4(conway_poly: LaurentPoly) -> int:
    """The z^4 coefficient of a Conway polynomial; -n on the twist family."""
    if not conway_poly.is_integral:
        raise ValueError("Conway polynomial must have integral exponents")
    return conway_poly.coeff(4)


def a2(conway_poly: LaurentPoly) -> int:
    """The z^2 coefficient of a Conway polynomial."""
    if not conway_poly.is_integral:
        raise ValueError("Conway polynomial must have integral exponents")
    return conway_poly.coeff(2)


def casson_minus_one_surgery(a2_value) -> Fraction:
    """Casson invariant of (-1)-surgery on a knot with given a2."""
    return Fraction(-a2_value)


def ohtsuki_lambda2(v2, v3, c4_value) -> Fraction:
    """lambda2 = v2/2 + v3/3 + (5/3)v2^2 - 60*c4, exactly."""
    v2 = Fraction(v2)
    v3 = Fraction(v3)
    return v2 / 2 + v3 / 3 + Fraction(5, 3) * v2 * v2 - 60 * Fraction(c4_value)


def _invariants_from(nabla: LaurentPoly, vee: LaurentPoly) -> SurgeryInvariants:
    """The invariant record of a knot with Conway polynomial nabla and Jones vee."""
    if not vee.is_integral:
        raise AssertionError("Jones polynomial of a knot must have integer exponents")
    a2_val = a2(nabla)
    c4_val = c4(nabla)
    v2 = vee.moment(2)
    v3 = vee.moment(3)
    if v2 != -6 * a2_val:
        raise AssertionError(
            f"v2 = {v2} violates the classical identity v2 = -6*a2 = {-6 * a2_val}")
    return SurgeryInvariants(
        a2=a2_val,
        c4=c4_val,
        v2=v2,
        v3=v3,
        lambda1=casson_minus_one_surgery(a2_val),
        lambda2=ohtsuki_lambda2(v2, v3, c4_val),
    )


def surgery_invariants(d: PDDiagram) -> SurgeryInvariants:
    """Full invariant record of (-1)-surgery on the knot d."""
    if d.component_count() != 1:
        raise ValueError("surgery invariants are defined for knots only")
    return _invariants_from(*skein.conway_jones(d))


def distinguish(inv1: SurgeryInvariants, inv2: SurgeryInvariants) -> dict:
    """Compare the (-1)-surgery invariant records of two knots.

    Verdict is "distinguished" when lambda1 or lambda2 differ (the surgered
    manifolds are then not homeomorphic) and "inconclusive" otherwise —
    equality of these invariants proves nothing.
    """
    distinguished = inv1.lambda1 != inv2.lambda1 or inv1.lambda2 != inv2.lambda2
    return {
        "verdict": "distinguished" if distinguished else "inconclusive",
        "lambda2_pair": [str(inv1.lambda2), str(inv2.lambda2)],
    }
