"""Exact arithmetic for twist polynomials: finite sums sum_k a_k * L^k, a_k in N.

These are the coefficient objects of every direct-sum decomposition in the
package.  Coefficients are plain Python ints (arbitrary precision) and are
never negative; cancellation is only available as exact division.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections.abc import Mapping

# largest dimension or top weight the package builds or realizes: ladders,
# Betti vectors and printed diamonds grow with it, not with stored terms
MAX_DIM = 1000
# term pairs a product may multiply: any two degrees <= MAX_DIM stay within it
MAX_PAIRS = (MAX_DIM + 1) ** 2


class NotDivisibleError(ArithmeticError):
    """No quotient with nonnegative integer coefficients exists."""

    def __str__(self) -> str:  # div_exact passes its operands: formatted only when read
        args = self.args
        return "{} is not divisible by {}".format(*args) if len(args) == 2 else super().__str__()


def _dense(c: dict[int, int]) -> tuple[int, int] | None:
    """(min(c), max(c)) if c holds 16+ terms under 4 degrees apart on average:
    packing beats the loops there; else None."""
    if len(c) >= 16 and (hi := max(c)) - (lo := min(c)) < 4 * len(c):
        return lo, hi
    return None


# the unsigned array typecode of each machine width: digits of these widths
# convert at C speed; the packed int is little-endian on any host
_CODES = {array(t).itemsize: t for t in "BHILQ"}


def _width(top: int) -> int:
    """Bytes a digit up to top takes: the least array width that holds it, else exact."""
    w = (top.bit_length() + 7) // 8
    return min((s for s in _CODES if s >= w), default=w)


def _pack(c: dict[int, int], w: int, lo: int, hi: int) -> int:
    """Degrees lo .. hi of c, a span holding every stored one, as the w-byte digits of an int."""
    if w not in _CODES:
        digits = [c.get(k, 0).to_bytes(w, "little") for k in range(lo, hi + 1)]
        return int.from_bytes(b"".join(digits), "little")
    a = array(_CODES[w], [0]) * (hi - lo + 1)
    for k, v in c.items():
        a[k - lo] = v
    if sys.byteorder == "big":
        a.byteswap()
    return int.from_bytes(a, "little")


def _unpack(n: int, w: int, lo: int = 0) -> dict[int, int]:
    """The nonzero w-byte digits of n, keyed by their place plus lo."""
    b = n.to_bytes(-(-n.bit_length() // (8 * w)) * w, "little")  # whole digits
    if w in _CODES:
        digits = array(_CODES[w], b)
        if sys.byteorder == "big":
            digits.byteswap()
    else:
        digits = (int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w))
    return {lo + k: a for k, a in enumerate(digits) if a}


def _packed_product(a: dict[int, int], sa: tuple, b: dict[int, int], sb: tuple) -> dict[int, int]:
    """a * b over their spans sa and sb as one int product: a coefficient of
    a * b is at most max(a) * b(1) and at most max(b) * a(1)."""
    w = _width(min(max(a.values()) * sum(b.values()), max(b.values()) * sum(a.values())))
    return _unpack(_pack(a, w, *sa) * _pack(b, w, *sb), w, sa[0] + sb[0])


def gaussian_binomial(n: int, k: int) -> TatePolynomial:
    """q-binomial coefficient [n choose k]_q via the q-Pascal recurrence,
    with q read as the Tate class."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    k = min(k, n - k)  # [n, k] = [n, n - k]; each row keeps columns 0..k only
    # row[j] packs [m, j] at w bytes a degree: its coefficients sum to comb(m, j) <= comb(n, k)
    w = _width(math.comb(n, k))
    s, row = 8 * w, [1] + [0] * k
    for m in range(1, n + 1):
        # [m, j] = [m-1, j-1] + L^j [m-1, j], where [m-1, j] = 0 for j >= m; only
        # columns j >= k - (n - m) can still reach [n, k], and below the band
        # no later row reads a stale column
        lo, hi = max(1, k - n + m), min(m, k)
        row[lo : hi + 1] = [row[j - 1] + (row[j] << s * j) for j in range(lo, hi + 1)]
    return _unchecked(_unpack(row[k], w))


class Frozen:
    """Base of every value type: read-only fields named by __slots__, which
    the constructor takes in that order; equal only within one class, on the
    fields ``_key`` lists (all unless a subclass narrows it)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    _key = _fields

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()


class TatePolynomial(Frozen):
    """A formal nonnegative-integer combination of powers of the Tate class L.

    Sparse canonical form: the coefficient map never stores zeros.  A Frozen
    value, hashable, copied and pickled through its constructor; arithmetic
    returns new values, so instances are safe to share freely.
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

    def _key(self):  # the dict itself: the parser compares every twist with ONE
        return self._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TatePolynomial") -> "TatePolynomial":
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for k, a in other._coeffs.items():
            out[k] = out.get(k, 0) + a
        return _unchecked(out)

    def __mul__(self, other: "TatePolynomial") -> "TatePolynomial":
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        pairs = len(self._coeffs) * len(other._coeffs)
        if pairs > MAX_PAIRS:
            raise ValueError(f"twist product of {pairs} term pairs exceeds {MAX_PAIRS}")
        if (sa := _dense(self._coeffs)) and (sb := _dense(other._coeffs)):
            return _unchecked(_packed_product(self._coeffs, sa, other._coeffs, sb))
        out: dict[int, int] = {}
        for k1, a1 in self._coeffs.items():
            for k2, a2 in other._coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + a1 * a2
        return _unchecked(out)

    def __pow__(self, n: int) -> "TatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        if not n:
            return ONE
        # square from the leading bit down: bit_length + bit_count - 2 products, none by ONE
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def div_exact(self, d: "TatePolynomial") -> "TatePolynomial":
        """Exact quotient q with q * d == self and coefficients in N.

        Raises NotDivisibleError when no such quotient exists; this is the
        only cancellation mechanism the module exposes.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        p, dc = self._coeffs, d._coeffs
        if (sp := _dense(p)) and (sd := _dense(dc)):
            # no coefficient of an exact quotient or divisor exceeds top
            top = max(p.values())
            if sp[0] < sd[0] or max(dc.values()) > top:
                raise NotDivisibleError(self, d)
            w = _width(top)
            n, r = divmod(_pack(p, w, *sp), _pack(dc, w, *sd))
            if r:  # refused before any unpacking
                raise NotDivisibleError(self, d)
            # n times the packed divisor is the packed dividend, so no digit of
            # n lies past degree sp[1] - sd[1]
            sq = (sp[0] - sd[0], sp[1] - sd[1])
            quot = _unpack(n, w, sq[0])
            # an integer quotient need not be one in N[L].  No coefficient of
            # quot * d exceeds max(quot) * d(1): below 2^(8w) nothing carries,
            # so quot * d and p are both the base-2^(8w) digits of x; past it,
            # the product decides
            if max(quot.values()) * sum(dc.values()) >> 8 * w and (
                _packed_product(quot, sq, dc, sd) != p
            ):
                raise NotDivisibleError(self, d)
            return _unchecked(quot)
        rem, quot, d_lo = dict(p), {}, min(dc)
        d_lo_c = dc[d_lo]
        # a write to a degree the dividend lacks goes negative and raises, so
        # the dividend's own degrees, in increasing order, are every lowest term
        for r_lo in sorted(rem):
            r = rem[r_lo]
            if not r:
                continue
            c, m = divmod(r, d_lo_c)
            if r_lo < d_lo or m:
                raise NotDivisibleError(self, d)
            shift = r_lo - d_lo
            quot[shift] = c
            for k, a in dc.items():
                nv = rem.get(k + shift, 0) - a * c
                if nv < 0:
                    raise NotDivisibleError(self, d)
                rem[k + shift] = nv
        return _unchecked(quot)

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


def _unchecked(clean: dict[int, int]) -> TatePolynomial:
    """The value over clean, a fresh result of this module: int degrees >= 0 to ints > 0."""
    object.__setattr__(p := object.__new__(TatePolynomial), "_coeffs", clean)
    return p


@functools.lru_cache(maxsize=64)
def _ladder(lo: int, hi: int) -> TatePolynomial:
    return _unchecked(dict.fromkeys(range(lo, hi + 1), 1))


def ladder(lo: int, hi: int) -> TatePolynomial:
    """L^lo + ... + L^hi (zero if empty); the last 64 of <= MAX_DIM + 1 terms are shared."""
    if lo < 0 <= hi - lo:
        raise ValueError(f"negative exponent {lo}")
    return (_ladder if hi - lo <= MAX_DIM else _ladder.__wrapped__)(lo, hi)
