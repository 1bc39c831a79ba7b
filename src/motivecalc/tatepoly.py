"""Exact arithmetic for twist polynomials: finite sums sum_k a_k * L^k, a_k in N.

These are the coefficient objects of every direct-sum decomposition in the
package.  Coefficients are plain Python ints (arbitrary precision) and are
never negative; cancellation is only available as exact division.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class NotDivisibleError(ArithmeticError):
    """No quotient with nonnegative integer coefficients exists."""


class TatePolynomial:
    """A formal nonnegative-integer combination of powers of the Tate class L.

    Sparse canonical form: the coefficient map never stores zeros.  Instances
    are immutable and hashable; all arithmetic returns new values, so they are
    safe to share freely.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for k, a in items:
            k = int(k)
            a = int(a)
            if k < 0:
                raise ValueError(f"negative exponent {k}")
            if a < 0:
                raise ValueError(f"negative coefficient {a} at L^{k}")
            if a:
                clean[k] = clean.get(k, 0) + a
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TatePolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "TatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "TatePolynomial":
        return cls({0: 1})

    @classmethod
    def lefschetz(cls, k: int = 1) -> "TatePolynomial":
        """The single monomial L^k."""
        return cls({k: 1})

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def coefficient(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    @property
    def degree(self) -> int:
        """Max stored exponent; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TatePolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TatePolynomial") -> "TatePolynomial":
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for k, a in other._coeffs.items():
            out[k] = out.get(k, 0) + a
        return TatePolynomial(out)

    def __mul__(self, other) -> "TatePolynomial":
        if isinstance(other, int):
            if other < 0:
                raise ValueError("negative scalar")
            return TatePolynomial({k: a * other for k, a in self._coeffs.items()})
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, a1 in self._coeffs.items():
            for k2, a2 in other._coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + a1 * a2
        return TatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = TatePolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "TatePolynomial":
        """Multiply by L^k."""
        return TatePolynomial({e + k: a for e, a in self._coeffs.items()})

    def div_exact(self, d: "TatePolynomial") -> "TatePolynomial":
        """Exact quotient q with q * d == self and coefficients in N.

        Raises NotDivisibleError when no such quotient exists; this is the
        only cancellation mechanism the module exposes.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self._coeffs)
        quot: dict[int, int] = {}
        d_lo = min(d._coeffs)
        d_lo_c = d._coeffs[d_lo]
        while rem:
            r_lo = min(rem)
            if r_lo < d_lo:
                raise NotDivisibleError(f"{self} is not divisible by {d}")
            c, m = divmod(rem[r_lo], d_lo_c)
            if m:
                raise NotDivisibleError(f"{self} is not divisible by {d}")
            shift = r_lo - d_lo
            quot[shift] = c
            for k, a in d._coeffs.items():
                nk = k + shift
                nv = rem.get(nk, 0) - a * c
                if nv < 0:
                    raise NotDivisibleError(f"{self} is not divisible by {d}")
                if nv:
                    rem[nk] = nv
                else:
                    rem.pop(nk, None)
        return TatePolynomial(quot)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, a in self.items():
            if k == 0:
                parts.append(str(a))
            else:
                var = "L" if k == 1 else f"L^{k}"
                parts.append(var if a == 1 else f"{a}{var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TatePolynomial({self._coeffs!r})"


ZERO = TatePolynomial.zero()
ONE = TatePolynomial.one()
L = TatePolynomial.lefschetz()


def ladder(lo: int, hi: int) -> TatePolynomial:
    """L^lo + L^(lo+1) + ... + L^hi (zero when the range is empty)."""
    return TatePolynomial({k: 1 for k in range(lo, hi + 1)})
