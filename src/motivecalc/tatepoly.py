"""Exact arithmetic for twist polynomials: finite sums sum_k a_k * L^k, a_k in N.

These are the coefficient objects of every direct-sum decomposition in the
package.  Coefficients are plain Python ints (arbitrary precision) and are
never negative; cancellation is only available as exact division.
"""

from __future__ import annotations

from collections.abc import Mapping

# largest dimension or top weight the package builds or realizes: ladders,
# Betti vectors and printed diamonds grow with it, not with stored terms
MAX_DIM = 1000
# term pairs a product may multiply: any two degrees <= MAX_DIM stay within it
MAX_PAIRS = (MAX_DIM + 1) ** 2


class NotDivisibleError(ArithmeticError):
    """No quotient with nonnegative integer coefficients exists."""


def _dense(c: dict[int, int]) -> bool:
    """16+ terms under 4 degrees apart on average: packing beats the loops there."""
    return len(c) >= 16 and max(c) - min(c) < 4 * len(c)


def _pack(c: dict[int, int], w: int) -> tuple[int, int]:
    """(lo, n): degrees lo = min(c) .. max(c) of c as the w-byte digits of n."""
    lo = min(c)
    digits = [c.get(k, 0).to_bytes(w, "little") for k in range(lo, max(c) + 1)]
    return lo, int.from_bytes(b"".join(digits), "little")


def _unpack(n: int, w: int, lo: int = 0) -> dict[int, int]:
    """The nonzero w-byte digits of n, keyed by their place plus lo."""
    b = n.to_bytes((n.bit_length() + 7) // 8, "little")
    digits = (int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w))
    return {lo + k: a for k, a in enumerate(digits) if a}


def _packed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a * b as one int product; a coefficient sums at most min(len) pairs."""
    top = max(a.values()) * max(b.values()) * min(len(a), len(b))
    w = (top.bit_length() + 7) // 8
    (lo_a, x), (lo_b, y) = _pack(a, w), _pack(b, w)
    return _unpack(x * y, w, lo_a + lo_b)


class TatePolynomial:
    """A formal nonnegative-integer combination of powers of the Tate class L.

    Sparse canonical form: the coefficient map never stores zeros.  Instances
    are immutable and hashable; all arithmetic returns new values, so they are
    safe to share freely.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int]):
        clean: dict[int, int] = {}
        for k, a in coeffs.items():
            if type(k) is not int or type(a) is not int:
                raise TypeError(f"term {a!r} * L^{k!r} needs an int exponent and coefficient")
            if k < 0:
                raise ValueError(f"negative exponent {k}")
            if a < 0:
                raise ValueError(f"negative coefficient {a} at L^{k}")
            if a:
                clean[k] = a
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TatePolynomial is immutable")

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

    def __mul__(self, other: "TatePolynomial") -> "TatePolynomial":
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        pairs = len(self._coeffs) * len(other._coeffs)
        if pairs > MAX_PAIRS:
            raise ValueError(f"twist product of {pairs} term pairs exceeds {MAX_PAIRS}")
        if _dense(self._coeffs) and _dense(other._coeffs):
            return TatePolynomial(_packed_product(self._coeffs, other._coeffs))
        out: dict[int, int] = {}
        for k1, a1 in self._coeffs.items():
            for k2, a2 in other._coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + a1 * a2
        return TatePolynomial(out)

    def __pow__(self, n: int) -> "TatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        # exponentiation by squaring: O(log n) multiplications
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def div_exact(self, d: "TatePolynomial") -> "TatePolynomial":
        """Exact quotient q with q * d == self and coefficients in N.

        Raises NotDivisibleError when no such quotient exists; this is the
        only cancellation mechanism the module exposes.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        p, dc = self._coeffs, d._coeffs
        if _dense(p) and _dense(dc):
            # no coefficient of an exact quotient or divisor exceeds top
            top = max(p.values())
            if min(p) < min(dc) or max(dc.values()) > top:
                raise NotDivisibleError(f"{self} is not divisible by {d}")
            w = (top.bit_length() + 7) // 8
            (p_lo, x), (d_lo, y) = _pack(p, w), _pack(dc, w)
            n, r = divmod(x, y)
            quot = _unpack(n, w, p_lo - d_lo)
            # an integer quotient need not be one in N[L]: multiply back
            if r or _packed_product(quot, dc) != p:
                raise NotDivisibleError(f"{self} is not divisible by {d}")
            return TatePolynomial(quot)
        rem = dict(p)
        quot = {}
        d_lo = min(dc)
        d_lo_c = dc[d_lo]
        # a write to a degree the dividend lacks goes negative and raises, so
        # the dividend's own degrees, in increasing order, are every lowest term
        for r_lo in sorted(rem):
            r = rem[r_lo]
            if not r:
                continue
            c, m = divmod(r, d_lo_c)
            if r_lo < d_lo or m:
                raise NotDivisibleError(f"{self} is not divisible by {d}")
            shift = r_lo - d_lo
            quot[shift] = c
            for k, a in dc.items():
                nv = rem.get(k + shift, 0) - a * c
                if nv < 0:
                    raise NotDivisibleError(f"{self} is not divisible by {d}")
                rem[k + shift] = nv
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


ZERO = TatePolynomial({})
ONE = TatePolynomial({0: 1})
L = TatePolynomial({1: 1})  # the Tate class; L ** k is the monomial L^k


def ladder(lo: int, hi: int) -> TatePolynomial:
    """L^lo + L^(lo+1) + ... + L^hi (zero when the range is empty)."""
    return TatePolynomial({k: 1 for k in range(lo, hi + 1)})
