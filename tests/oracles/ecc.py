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
this module; its value is that it never changes.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.ecc.reed_solomon import DecodeFailure, ReedSolomon


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
            magnitude = self.field.mul(x, self.field.div(omega_val, deriv_val))
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
