"""Exact Laurent polynomials with half-integer exponents.

Coefficients are arbitrary-precision integers (`int`): Conway and Jones
polynomials and the bracket oracle's sums live in Z[t^(1/2), t^(-1/2)], and
the constructor rejects anything else.  `fractions.Fraction` appears only for
half-integer exponents and for `moment`, whose value is rational; no floating
point is used anywhere in this module.  Exponents are stored internally as
*doubled* integers, so ``t**Fraction(1,2)`` has stored key 1 and an ordinary
``t**3`` has stored key 6.  A polynomial is *integral* when every stored key
is even.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def _as_doubled_exponent(e) -> int:
    """Convert an exponent (int, or Fraction with denominator 1 or 2) to its doubled key."""
    if isinstance(e, int):
        return 2 * e
    if isinstance(e, Fraction):
        if e.denominator == 1:
            return 2 * e.numerator
        if e.denominator == 2:
            return e.numerator
    raise ValueError(f"exponent must be a half-integer, got {e!r}")


class LaurentPoly:
    """A Laurent polynomial in one formal variable, with half-integer exponents.

    Instances are immutable and hashable; all arithmetic returns new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, doubled_terms: Mapping[int, int] | None = None):
        terms = {}
        if doubled_terms:
            for k, c in doubled_terms.items():
                if type(k) is not int:
                    raise TypeError("doubled exponent keys must be int")
                if type(c) is not int:
                    raise TypeError(f"coefficients must be int, got {type(c).__name__}")
                if c:
                    terms[k] = c
        self._terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.monomial(1, 0)

    @classmethod
    def monomial(cls, coeff: int, exponent) -> "LaurentPoly":
        """``coeff * t**exponent`` where exponent is an int or half-integer Fraction."""
        return cls({_as_doubled_exponent(exponent): coeff})

    @classmethod
    def from_exponents(cls, terms: Mapping[int | Fraction, int]) -> "LaurentPoly":
        """Build from a map exponent -> coefficient (exponents half-integers)."""
        return cls({_as_doubled_exponent(e): c for e, c in terms.items()})

    # -- inspection --------------------------------------------------------

    def doubled_terms(self) -> dict[int, int]:
        return dict(self._terms)

    def coeff(self, exponent) -> int:
        """Coefficient of ``t**exponent`` (zero when absent)."""
        return self._terms.get(_as_doubled_exponent(exponent), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_integral(self) -> bool:
        """True when every exponent is an integer (all doubled keys even)."""
        return all(k % 2 == 0 for k in self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._terms = {k: v * other for k, v in self._terms.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms: dict[int, int] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                k = ka + kb
                s = terms.get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- analytic extraction ----------------------------------------------

    def moment(self, i: int) -> Fraction:
        """The i-th moment sum(a_e * e**i) over terms a_e * t**e.

        Equals the i-th derivative of p(e**h) at h = 0.
        """
        if i < 0:
            raise ValueError("moment order must be non-negative")
        return Fraction(sum(c * k ** i for k, c in self._terms.items()), 2 ** i)

    # -- rendering ---------------------------------------------------------

    def render(self, variable: str = "t") -> str:
        """Deterministic text form, terms sorted by descending exponent.

        Examples: ``1 + 2*z^2 - 3*z^4`` rendered as
        ``-3*z^4 + 2*z^2 + 1`` style output with exponents in lowest terms.
        """
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                e = Fraction(k, 2)
                exp = str(e.numerator) if e.denominator == 1 else f"({e})"
                var = f"{variable}^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"
