"""GF(2^m) finite-field arithmetic over log/antilog tables.

Supports field sizes from GF(4) to GF(65536). Elements are represented as
Python ints / numpy integer arrays in ``[0, 2^m)``. Multiplication and
division go through exponential/logarithm tables indexed by a primitive
element alpha, which makes both scalar and vectorized operations O(1) per
element.

The paper's storage architecture uses GF(2^16) (65,535-symbol codewords);
the scaled experiment configurations in this repository default to GF(2^8).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

# Primitive polynomials (with the x^m term included), one per supported m.
# These are the conventional choices, e.g. 0x11D for GF(256) as used by CCSDS.
_PRIMITIVE_POLYS: Dict[int, int] = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0x11D,                # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0x1100B,             # x^16 + x^12 + x^3 + x + 1
}

_FIELD_CACHE: Dict[int, "GaloisField"] = {}


class GaloisField:
    """Arithmetic in GF(2^m) with a fixed primitive element alpha.

    Instances are immutable and cached per ``m`` (table construction for
    GF(2^16) costs a few hundred milliseconds, so reuse matters).

    Attributes:
        m: field extension degree (symbols are m-bit).
        order: number of field elements, ``2^m``.
        max_value: largest symbol value, ``2^m - 1`` (also the multiplicative
            group order, i.e. the natural Reed-Solomon codeword length).
    """

    def __init__(self, m: int) -> None:
        if m not in _PRIMITIVE_POLYS:
            supported = sorted(_PRIMITIVE_POLYS)
            raise ValueError(f"unsupported field degree m={m}; supported: {supported}")
        self.m = m
        self.order = 1 << m
        self.max_value = self.order - 1
        self._poly = _PRIMITIVE_POLYS[m]
        self._exp, self._log = self._build_tables()

    @classmethod
    def get(cls, m: int) -> "GaloisField":
        """Return the cached field of degree ``m`` (building it on first use)."""
        if m not in _FIELD_CACHE:
            _FIELD_CACHE[m] = cls(m)
        return _FIELD_CACHE[m]

    def _build_tables(self) -> tuple:
        """Build exp/log tables by repeated multiplication by alpha (x)."""
        size = self.order
        # exp has 2*(size-1) entries so that exp[log a + log b] needs no modulo.
        exp = np.zeros(2 * (size - 1), dtype=np.int64)
        log = np.zeros(size, dtype=np.int64)
        value = 1
        for power in range(size - 1):
            exp[power] = value
            log[value] = power
            value <<= 1
            if value & size:  # degree-m term appeared: reduce by the polynomial
                value ^= self._poly
        exp[size - 1:] = exp[: size - 1]
        log[0] = -1  # sentinel: log(0) is undefined
        return exp, log

    # -- scalar ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction) is XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log tables."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return int(self._exp[self.max_value - self._log[a]])

    def alpha_pow(self, exponent: int) -> int:
        """Return alpha^exponent for the field's primitive element."""
        return int(self._exp[exponent % self.max_value])

    # -- vector ops ---------------------------------------------------------

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        """Elementwise multiplicative inverse; raises on any zero."""
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self._exp[self.max_value - self._log[a]]

    def div_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``a / b`` (broadcasting); raises on any zero in b."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^m)")
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        a_b, b_b = np.broadcast_arrays(a, b)
        nonzero = a_b != 0
        if np.any(nonzero):
            idx = (self._log[a_b[nonzero]] - self._log[b_b[nonzero]]) \
                % self.max_value
            out[nonzero] = self._exp[idx]
        return out

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two symbol arrays (broadcasting allowed)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        nonzero = (a != 0) & (b != 0)
        if np.any(nonzero):
            a_nz, b_nz = np.broadcast_arrays(a, b)
            idx = self._log[a_nz[nonzero]] + self._log[b_nz[nonzero]]
            out[nonzero] = self._exp[idx]
        return out

    def scale_vec(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every element of ``a`` by one scalar."""
        a = np.asarray(a, dtype=np.int64)
        if scalar == 0:
            return np.zeros_like(a)
        out = np.zeros_like(a)
        nonzero = a != 0
        out[nonzero] = self._exp[self._log[a[nonzero]] + self._log[scalar]]
        return out

    # -- polynomial ops (coefficient arrays, highest degree first) ----------

    def poly_eval_many(self, poly: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Evaluate a polynomial at many points at once (vector Horner)."""
        xs = np.asarray(xs, dtype=np.int64)
        result = np.zeros_like(xs)
        for coeff in np.asarray(poly, dtype=np.int64):
            result = self.mul_vec(result, xs) ^ int(coeff)
        return result

    def poly_eval_grid(self, polys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Evaluate many polynomials at many points in one Horner sweep.

        ``polys`` is ``(D, C)`` with descending coefficients (leading
        zeros are harmless — Horner just carries a zero accumulator), and
        ``xs`` is ``(P,)``; the result is ``(D, P)`` with
        ``out[d, p] = polys[d](xs[p])``. This is the batched Chien-search
        primitive: one many-polynomials-at-many-points product per
        coefficient instead of ``D`` scalar Horner loops.
        """
        polys = np.asarray(polys, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.int64)
        result = np.zeros((polys.shape[0], xs.shape[0]), dtype=np.int64)
        for c in range(polys.shape[1]):
            result = self.mul_vec(result, xs[None, :]) ^ polys[:, c: c + 1]
        return result

    def poly_mul(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Multiply two polynomials."""
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        out = np.zeros(len(p) + len(q) - 1, dtype=np.int64)
        for i, coeff in enumerate(p):
            if coeff != 0:
                out[i: i + len(q)] ^= self.scale_vec(q, int(coeff))
        return out

    def poly_divmod(self, dividend: np.ndarray, divisor: np.ndarray) -> tuple:
        """Polynomial long division; returns (quotient, remainder)."""
        dividend = np.asarray(dividend, dtype=np.int64).copy()
        divisor = np.asarray(divisor, dtype=np.int64)
        divisor = np.trim_zeros(divisor, "f")
        if divisor.size == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if len(dividend) < len(divisor):
            return np.zeros(1, dtype=np.int64), dividend
        lead_inv = self.inv(int(divisor[0]))
        quotient = np.zeros(len(dividend) - len(divisor) + 1, dtype=np.int64)
        for i in range(len(quotient)):
            coeff = self.mul(int(dividend[i]), lead_inv)
            quotient[i] = coeff
            if coeff != 0:
                dividend[i: i + len(divisor)] ^= self.scale_vec(divisor, coeff)
        remainder = dividend[len(quotient):]
        return quotient, remainder

    def __repr__(self) -> str:
        return f"GaloisField(2^{self.m}, poly=0x{self._poly:X})"
