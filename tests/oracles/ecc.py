"""Frozen reference implementation of the scalar RS errata decoder.

This is the original per-codeword error-and-erasure chain — syndromes,
erasure-locator product, Berlekamp–Massey seeded with it, Chien search,
Forney — exactly as it ran inside :class:`~repro.ecc.reed_solomon.
ReedSolomon.decode` before the chain was vectorized across whole batches
of dirty codewords (:mod:`repro.ecc.batched`). It processes one codeword
per call and loops coefficient-by-coefficient, which makes it easy to
audit against the textbook algorithm — and deliberately slow.

Like :mod:`oracles.consensus` and :mod:`oracles.cluster`, it exists so correctness of the batched decoder is checkable by
construction: ``tests/ecc/test_batched_vs_reference.py`` asserts that
:meth:`ReedSolomon.decode_many` matches this chain row for row —
corrected symbols, corrected counts, and which rows fail. Do not optimize
this module; its value is that it never changes. Its Forney step divides
with :func:`gf_div`, the scalar field division nothing in the live
decoder uses any more.

:class:`Float64BitPlaneProducts` freezes the batched parity and syndrome
products as they ran in float64, per-bit shifts and all, before the
float32 products with byte-wise bit planes replaced them; the same suite
pins the two byte for byte, and ``tests/integration/test_perf_budget.py``
times the float32 products against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.ecc.reed_solomon import DecodeFailure, ReedSolomon


def gf_div(field, a: int, b: int) -> int:
    """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^m)")
    if a == 0:
        return 0
    return int(field._exp[(field._log[a] - field._log[b]) % field.max_value])


class ReferenceReedSolomon(ReedSolomon):
    """The original scalar error-and-erasure decoder, frozen verbatim.

    Construction, encoding and the syndrome helpers are shared with
    :class:`ReedSolomon`; only the errata chain differs — this class runs
    the per-codeword Python loops the batched decoder replaced.
    """

    def decode(
        self,
        received: Sequence[int],
        erasures: Iterable[int] = (),
    ) -> Tuple[np.ndarray, int]:
        """Correct a received word and return ``(message, n_corrected)``.

        See :meth:`ReedSolomon.decode` for the contract; this is the
        original implementation.
        """
        word = np.asarray(received, dtype=np.int64).copy()
        if word.shape != (self.n,):
            raise ValueError(f"received must have {self.n} symbols, got {word.shape}")
        erasure_list = sorted(set(int(e) for e in erasures))
        for pos in erasure_list:
            if not (0 <= pos < self.n):
                raise ValueError(f"erasure index {pos} out of range [0, {self.n})")
        if len(erasure_list) > self.nsym:
            raise DecodeFailure(
                f"{len(erasure_list)} erasures exceed correction capability {self.nsym}"
            )
        # Zero out erased positions so their prior content cannot bias syndromes.
        if erasure_list:
            word[erasure_list] = 0

        syndromes = self._syndromes(word)
        if not np.any(syndromes):
            return word[: self.k], len(erasure_list)

        errata_locator = self._berlekamp_massey(syndromes, erasure_list)
        positions = self._chien_search(errata_locator)
        degree = len(errata_locator) - 1
        if len(positions) != degree:
            raise DecodeFailure(
                f"locator degree {degree} but found {len(positions)} roots"
            )
        n_errors = degree - len(erasure_list)
        if 2 * n_errors + len(erasure_list) > self.nsym:
            raise DecodeFailure(
                f"{n_errors} errors + {len(erasure_list)} erasures exceed capability"
            )
        magnitudes = self._forney(syndromes, errata_locator, positions)
        for pos, mag in zip(positions, magnitudes):
            word[pos] ^= mag
        if np.any(self._syndromes(word)):
            raise DecodeFailure("residual syndromes after correction")
        return word[: self.k], degree

    # -- decoder internals (ascending-order polynomials) ----------------------

    def _erasure_locator(self, erasure_list: Sequence[int]) -> list:
        """Gamma(x) = prod (1 + alpha^d x), ascending coefficient list."""
        locator = [1]
        for pos in erasure_list:
            degree = self.n - 1 - pos
            root = self.field.alpha_pow(degree)
            # Multiply locator by (1 + root*x).
            extended = locator + [0]
            for i in range(len(locator)):
                extended[i + 1] ^= self.field.mul(locator[i], root)
            locator = extended
        return locator

    def _berlekamp_massey(
        self, syndromes: np.ndarray, erasure_list: Sequence[int]
    ) -> list:
        """Find the errata locator, seeded with the erasure locator.

        Returns the combined locator Lambda(x)*Gamma(x) as an ascending
        coefficient list with constant term 1.
        """
        rho = len(erasure_list)
        locator = self._erasure_locator(erasure_list)
        previous = list(locator)
        for k in range(rho, self.nsym):
            delta = int(syndromes[k])
            for j in range(1, len(locator)):
                if locator[j] and k - j >= 0:
                    delta ^= self.field.mul(locator[j], int(syndromes[k - j]))
            previous = [0] + previous  # multiply by x (ascending order)
            if delta != 0:
                if len(previous) > len(locator):
                    new_locator = [self.field.mul(c, delta) for c in previous]
                    inv_delta = self.field.inv(delta)
                    previous = [self.field.mul(c, inv_delta) for c in locator]
                    locator = new_locator
                scaled = [self.field.mul(c, delta) for c in previous]
                merged = [0] * max(len(locator), len(scaled))
                for i, c in enumerate(locator):
                    merged[i] ^= c
                for i, c in enumerate(scaled):
                    merged[i] ^= c
                locator = merged
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        if locator[0] != 1:
            raise DecodeFailure("locator constant term is not 1")
        return locator

    def _chien_search(self, locator: list) -> list:
        """Return received-array positions where the locator has a root."""
        loc_desc = np.array(locator[::-1], dtype=np.int64)
        evaluations = self.field.poly_eval_many(loc_desc, self._inv_roots)
        return [int(i) for i in np.nonzero(evaluations == 0)[0]]

    def _forney(
        self, syndromes: np.ndarray, locator: list, positions: Sequence[int]
    ) -> list:
        """Error magnitudes e = X * Omega(X^-1) / Lambda'(X^-1) (fcr = 0)."""
        # Omega(x) = S(x) * Lambda(x) mod x^nsym, ascending coefficients.
        omega = [0] * self.nsym
        for i in range(self.nsym):
            s = int(syndromes[i])
            if s == 0:
                continue
            for j, lam in enumerate(locator):
                if lam and i + j < self.nsym:
                    omega[i + j] ^= self.field.mul(s, lam)
        # Formal derivative keeps odd-degree terms: sum Lambda_j x^(j-1), j odd.
        derivative = [locator[j] for j in range(1, len(locator), 2)]
        magnitudes = []
        for pos in positions:
            degree = self.n - 1 - pos
            x = self.field.alpha_pow(degree)
            x_inv = self.field.inv(x)
            omega_val = self._eval_ascending(omega, x_inv)
            # Lambda'(x_inv): even powers of x_inv only (x^(j-1) with j odd).
            deriv_val = 0
            power = 1
            x_inv_sq = self.field.mul(x_inv, x_inv)
            for coeff in derivative:
                if coeff:
                    deriv_val ^= self.field.mul(coeff, power)
                power = self.field.mul(power, x_inv_sq)
            if deriv_val == 0:
                raise DecodeFailure("Forney derivative evaluated to zero")
            magnitude = self.field.mul(x, gf_div(self.field, omega_val,
                                                 deriv_val))
            magnitudes.append(magnitude)
        return magnitudes

    def _eval_ascending(self, poly: Sequence[int], x: int) -> int:
        """Evaluate an ascending-order coefficient list at ``x``."""
        result = 0
        power = 1
        for coeff in poly:
            if coeff:
                result ^= self.field.mul(coeff, power)
            power = self.field.mul(power, x)
        return result

    def __repr__(self) -> str:
        return (f"ReferenceReedSolomon(m={self.m}, n={self.n}, "
                f"k={self.k}, nsym={self.nsym})")


class Float64BitPlaneProducts:
    """The float64 bit-plane products of one code, frozen verbatim.

    :meth:`parity_many` and :meth:`syndromes_many` are the bodies of
    :meth:`ReedSolomon.parity_many`/:meth:`~ReedSolomon.syndromes_many`
    before they moved to float32: operand bits by one shift per bit, a
    float64 BLAS product, the mod-2 shift-sum re-pack. The bit matrices
    are built here in float64, once per code, as the codec cached them.
    """

    def __init__(self, rs: ReedSolomon) -> None:
        self.rs = rs
        m, k, n, nsym = rs.m, rs.k, rs.n, rs.nsym
        shifts = np.arange(m, dtype=np.int64)
        rows = rs._parity_generator_rows()
        bits = np.empty((k, m, nsym, m), dtype=np.float64)
        for t in range(m):
            scaled = rs.field.scale_vec(rows, 1 << t)
            bits[:, t, :, :] = (scaled[:, :, None] >> shifts) & 1
        self._parity_bits = bits.reshape(k * m, nsym * m)
        powers = np.array(
            [[rs.field.alpha_pow(j * (n - 1 - i)) for j in range(nsym)]
             for i in range(n)],
            dtype=np.int64,
        )  # (n, nsym)
        bits = np.empty((n, m, nsym, m), dtype=np.float64)
        for t in range(m):
            scaled = rs.field.scale_vec(powers, 1 << t)
            bits[:, t, :, :] = (scaled[:, :, None] >> shifts) & 1
        self._syndrome_bits = bits.reshape(n * m, nsym * m)

    def parity_many(self, messages: np.ndarray) -> np.ndarray:
        """``(B, k)`` messages -> ``(B, nsym)`` parity symbols."""
        rs = self.rs
        messages = np.asarray(messages, dtype=np.int64)
        if messages.ndim != 2 or messages.shape[1] != rs.k:
            raise ValueError(
                f"messages must be (B, {rs.k}), got {messages.shape}"
            )
        if messages.size and (messages.min() < 0
                              or messages.max() > rs.field.max_value):
            raise ValueError("message symbols out of field range")
        if messages.shape[0] == 0:
            return np.zeros((0, rs.nsym), dtype=np.int64)
        shifts = np.arange(rs.m, dtype=np.int64)
        message_bits = ((messages[:, :, None] >> shifts) & 1).reshape(
            messages.shape[0], rs.k * rs.m
        ).astype(np.float64)
        # Bit counts stay far below 2^53, so the float64 product is exact.
        counts = message_bits @ self._parity_bits
        parity_bits = (counts.astype(np.int64) & 1).reshape(
            messages.shape[0], rs.nsym, rs.m
        )
        return (parity_bits << shifts).sum(axis=2)

    def syndromes_many(self, words: np.ndarray) -> np.ndarray:
        """``(B, n)`` received words -> ``(B, nsym)`` syndromes."""
        rs = self.rs
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != rs.n:
            raise ValueError(f"words must be (B, {rs.n}), got {words.shape}")
        if words.size and (words.min() < 0
                           or words.max() > rs.field.max_value):
            raise ValueError("word symbols out of field range")
        shifts = np.arange(rs.m, dtype=np.int64)
        word_bits = ((words[:, :, None] >> shifts) & 1).reshape(
            words.shape[0], rs.n * rs.m
        ).astype(np.float64)
        counts = word_bits @ self._syndrome_bits
        syndrome_bits = (counts.astype(np.int64) & 1).reshape(
            words.shape[0], rs.nsym, rs.m
        )
        return (syndrome_bits << shifts).sum(axis=2)
