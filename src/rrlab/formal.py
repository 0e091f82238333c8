"""Exact truncated Laurent/power series with integer coefficients.

A FormalSeries holds the coefficients of x^offset .. x^order exactly;
exponents below offset are exactly zero, exponents above order are unknown
(truncated).  Arithmetic tracks the known range: a product of series known
through n1 and n2 terms is known through min(n1, n2) terms past its lowest
exponent.  Coefficients are Python ints, read through ``operator.index``.

By convention elsewhere in this package the variable is t with t^5 = q, so
fractional powers of q live at integer exponents of t (see ``stretch``).
"""

from __future__ import annotations

from operator import add, index, sub
from typing import Iterable, Sequence

__all__ = ["FormalSeries", "constant", "product_one_minus", "product_one_minus_inv", "stretched_product",
           "theta_series"]


def _product(a: Sequence, b: Sequence, n: int) -> list:
    """First n coefficients of the product of two coefficient lists.

    Kronecker substitution: each operand becomes one integer, its
    coefficients laid side by side in byte-aligned slots, and a single
    big-int multiply forms every coefficient of the product at once.  A slot
    holds n*max|a|*max|b| plus a sign bit, so no coefficient overflows into
    its neighbour.  Signs ride on a bias of half a slot per digit, which is
    subtracted again on each side of the multiply.
    """
    a, b = a[:n], b[:n]
    # default=0: a series known through no term (n = 0) has an empty product
    bits = sum(max(map(abs, d), default=0).bit_length() for d in (a, b)) + n.bit_length() + 1
    width = -(-bits // 8)  # bytes per slot
    half = 1 << (8 * width - 1)

    def biased(count: int) -> int:  # half in each of the lowest count slots
        return int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")

    def pack(digits: list) -> int:
        raw = b"".join([(d + half).to_bytes(width, "little") for d in digits])
        return int.from_bytes(raw, "little") - biased(len(digits))

    low = (pack(a) * pack(b) + biased(n)) & ((1 << (8 * width * n)) - 1)
    raw = low.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * n, width)]


class FormalSeries:
    """sum of c[e - offset] * x**e for offset <= e <= order, exact."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, coeffs: Sequence, offset: int = 0, order: int | None = None):
        coeffs = list(map(index, coeffs))  # TypeError on anything but an integer
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list requires an explicit order")
            order = offset + len(coeffs) - 1
        n = order - offset + 1
        if n < 0:
            raise ValueError("order below offset")
        if len(coeffs) < n:
            coeffs = coeffs + [0] * (n - len(coeffs))
        elif len(coeffs) > n:
            coeffs = coeffs[:n]
        # strip exact leading zeros, keeping one: they raise the valuation, not the order
        zeros = next((i for i, c in enumerate(coeffs) if c), len(coeffs) - 1)
        if zeros > 0:
            coeffs = coeffs[zeros:]
            offset += zeros
        self.coeffs = coeffs
        self.offset = offset
        self.order = order

    # -- inspection ----------------------------------------------------------

    @property
    def nterms(self) -> int:
        return self.order - self.offset + 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, e: int):
        """Coefficient of x**e; exponents above the known order are an error."""
        if e > self.order:
            raise IndexError(f"coefficient of x^{e} unknown (order {self.order})")
        if e < self.offset:
            return 0
        return self.coeffs[e - self.offset]

    # -- arithmetic ----------------------------------------------------------

    def _binary_add(self, other, sign: int):
        if not isinstance(other, FormalSeries):
            other = constant(other, self.order)
        order = min(self.order, other.order)
        offset = min(self.offset, other.offset)
        out = [0] * (order - offset + 1)
        for src, s in ((self, 1), (other, sign)):
            for i, c in enumerate(src.coeffs):
                e = src.offset + i
                if e <= order:
                    out[e - offset] += s * c
        return FormalSeries(out, offset, order)

    def __add__(self, other):
        return self._binary_add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary_add(other, -1)

    def __rsub__(self, other):
        return (-self)._binary_add(other, 1)

    def __neg__(self):
        return FormalSeries([-c for c in self.coeffs], self.offset, self.order)

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries([c * other for c in self.coeffs], self.offset, self.order)
        offset = self.offset + other.offset
        n = min(self.nterms, other.nterms)
        return FormalSeries(_product(self.coeffs, other.coeffs, n), offset, offset + n - 1)

    __rmul__ = __mul__

    def reciprocal(self) -> "FormalSeries":
        """Multiplicative inverse; requires a lowest coefficient of +-1, the units
        of the integers.

        Newton iteration y <- y + y*(1 - c*y) doubles the number of correct
        terms per step, seeded with 1/lead = lead.
        """
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of the zero series")
        c = self.coeffs
        lead = c[0]
        if lead not in (1, -1):
            raise ValueError(f"reciprocal requires a lowest coefficient of +-1, not {lead}")
        n = self.nterms
        steps = [n]  # n, ceil(n/2), ..., 1: the lengths y takes, climbed from 1
        while steps[-1] > 1:
            steps.append((steps[-1] + 1) // 2)
        y = [lead]
        for k, m in zip(steps[-1:0:-1], steps[-2::-1]):
            # c*y = 1 + O(x^k), so 1 - c*y mod x^m is -x^k times terms k..m-1
            e = _product(c, y, m)[k:]
            y += [-v for v in _product(y, e, m - k)]
        return FormalSeries(y, -self.offset, -self.offset + n - 1)

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError(f"negative power {m}: use reciprocal()")
        if m == 0:
            return constant(1, max(self.nterms - 1, 0))
        acc = None
        base = self
        while m:
            if m & 1:
                acc = base if acc is None else acc * base
            m >>= 1
            if m:
                base = base * base
        return acc

    # -- reshaping -----------------------------------------------------------

    def shift(self, d: int) -> "FormalSeries":
        """Multiply by x**d (d may be negative)."""
        return FormalSeries(list(self.coeffs), self.offset + d, self.order + d)

    def stretch(self, s: int) -> "FormalSeries":
        """Substitute x -> x**s; gaps are exact zeros, order becomes s*order + s - 1."""
        if s < 1:
            raise ValueError("stretch factor must be >= 1")
        out = [0] * ((self.nterms - 1) * s + 1)
        for i, c in enumerate(self.coeffs):
            out[i * s] = c
        return FormalSeries(out, self.offset * s, self.order * s + s - 1)

    def truncate(self, order: int) -> "FormalSeries":
        if order >= self.order:
            return self
        return FormalSeries(self.coeffs[: order - self.offset + 1], self.offset, order)

    # -- comparison / serialization -------------------------------------------

    def first_mismatch(self, other: "FormalSeries", e: int):
        """Lowest exponent <= e where coefficients differ, or None; IndexError past an order."""
        lo = min(self.offset, other.offset)
        for i in range(lo, e + 1):
            if self.coeff(i) != other.coeff(i):
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.offset == other.offset
            and self.coeffs == other.coeffs
        )

    def to_json(self) -> dict:
        return {
            "lowest_exponent": self.offset,
            "coeffs": list(map(str, self.coeffs)),
            "order": self.order,
        }

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"FormalSeries(x^{self.offset}*[{head}{tail}], order={self.order})"


def constant(c, order: int) -> FormalSeries:
    return FormalSeries([c], 0, order)


def stretched_product(a: FormalSeries, s: int, b: FormalSeries) -> FormalSeries:
    """a(x^s) * b, the same series as ``a.stretch(s) * b``.

    a(x^s) maps each exponent class of b mod s into itself, so the product is
    s products of a with one class each, every one 1/s as long as the whole.
    """
    if s < 1:
        raise ValueError("stretch factor must be >= 1")
    n = min(b.nterms, s * a.nterms)  # so no class of b is longer than a
    out = [0] * n
    for c in range(s):
        part = b.coeffs[c:n:s]
        if part:
            p = a * FormalSeries(part, 0, len(part) - 1)
            out[c:n:s] = [0] * (p.offset - a.offset) + p.coeffs
    lowest = s * a.offset + b.offset
    return FormalSeries(out, lowest, lowest + n - 1)


def product_one_minus(exponents: Iterable[int], order: int) -> FormalSeries:
    """prod (1 - x^k) over the given exponents, truncated to the order."""
    out = [0] * (order + 1)
    out[0] = 1
    for k in exponents:
        if k <= 0:
            raise ValueError("exponents must be positive")
        if k > order:
            continue
        out[k:] = map(sub, out[k:], out[:-k])  # both slices are copies of the old list
    return FormalSeries(out, 0, order)


def theta_series(a: int, b: int, order: int) -> FormalSeries:
    """S_(a,b) = sum over all integers m of (-1)^m x^((a m^2 - b m)/2), truncated
    to the order, for a > b >= 0 with a - b even.

    By the Jacobi triple product S_(a,b) = (x^a; x^a)_inf (x^((a-b)/2); x^a)_inf
    (x^((a+b)/2); x^a)_inf.  The exponent for m >= 0 is k = m(am - b)/2, and the
    one for -m is k + bm; both grow with m, so the loop stops at the order.
    """
    if not 0 <= b < a or (a - b) % 2:
        raise ValueError(f"theta_series needs a > b >= 0 with a - b even, not ({a}, {b})")
    out = [0] * (order + 1)
    m = 0
    while (k := m * (a * m - b) // 2) <= order:
        sign = -1 if m % 2 else 1
        out[k] += sign
        if m and k + b * m <= order:
            out[k + b * m] += sign
        m += 1
    return FormalSeries(out, 0, order)


def product_one_minus_inv(exponents: Iterable[int], order: int) -> FormalSeries:
    """prod 1/(1 - x^k) over the given exponents, truncated to the order."""
    out = [0] * (order + 1)
    out[0] = 1
    for k in exponents:
        if k <= 0:
            raise ValueError("exponents must be positive")
        if k > order:
            continue
        for s in range(k, order + 1, k):  # each block adds the updated block before it
            out[s : s + k] = map(add, out[s : s + k], out[s - k : s])
    return FormalSeries(out, 0, order)
