"""Systematic Reed-Solomon codec with error-and-erasure decoding.

This is the ECC used by the paper's storage architecture (its Figure 1):
each row of the encoding matrix is one RS codeword whose symbols live in
different DNA molecules. Molecule losses surface as *erasures* (the missing
column index is known), while indel/substitution noise that survives
consensus surfaces as symbol *errors* at unknown positions.

The decoder implements the classical chain — syndromes, Berlekamp–Massey
initialized with the erasure locator, Chien search, Forney algorithm — and
supports shortened codes (``n < 2^m - 1``), which the scaled experiment
configurations rely on. The chain itself runs batched: :meth:`ReedSolomon.
decode_many` moves every dirty codeword of a whole store through each
stage in lockstep (:mod:`repro.ecc.batched`), and the scalar
:meth:`ReedSolomon.decode` is a one-row wrapper around it. The original
per-codeword chain is frozen in ``tests/oracles/ecc.py``
(``ReferenceReedSolomon``), pinned byte-identical by
``tests/ecc/test_batched_vs_reference.py``.

Conventions: a codeword is an array ``c[0..n-1]`` of m-bit symbols;
``c[i]`` is the coefficient of ``x^(n-1-i)``, i.e. the first array element
is transmitted first and holds the highest-degree coefficient. The
generator polynomial has roots ``alpha^0 .. alpha^(nsym-1)`` (fcr = 0).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.ecc import batched as _batched
from repro.ecc.gf import GaloisField


class DecodeFailure(Exception):
    """Raised when a codeword is uncorrectable (too many errors/erasures)."""


class ReedSolomon:
    """A systematic RS(n, k) code over GF(2^m).

    Args:
        m: symbol size in bits (field degree), 2..16.
        nsym: number of parity symbols (``n - k``). Corrects up to ``nsym``
            erasures, ``nsym // 2`` errors, or any mix with
            ``2 * errors + erasures <= nsym``.
        n: codeword length; defaults to the natural length ``2^m - 1``.
            Smaller values produce a shortened code.
    """

    def __init__(self, m: int, nsym: int, n: Optional[int] = None) -> None:
        self.field = GaloisField.get(m)
        natural_n = self.field.max_value
        if n is None:
            n = natural_n
        if not (1 <= n <= natural_n):
            raise ValueError(f"n must be in [1, {natural_n}], got {n}")
        if not (0 < nsym < n):
            raise ValueError(f"nsym must be in (0, {n}), got {nsym}")
        self.m = m
        self.n = n
        self.nsym = nsym
        self.k = n - nsym
        self._generator = self._build_generator()
        # Per-position roots used across the errata chain: alpha^(n-1-i)
        # (erasure-locator factors, Forney's X) and its inverse (Chien
        # search, Forney evaluation points) — constructor-time so neither
        # the batched chain nor the frozen scalar reference pays
        # per-codeword allocation.
        degrees = np.arange(self.n - 1, -1, -1, dtype=np.int64)
        self._roots = np.array(
            [self.field.alpha_pow(int(d)) for d in degrees], dtype=np.int64
        )
        self._inv_roots = np.array(
            [self.field.alpha_pow(-int(d)) for d in degrees], dtype=np.int64
        )
        # Lazy caches for the batched entry points (parity_many /
        # syndromes_many); built on first use, never for decode-only codes.
        self._parity_bits: Optional[np.ndarray] = None
        self._syndrome_points: Optional[np.ndarray] = None

    def _build_generator(self) -> np.ndarray:
        """g(x) = prod_{j=0}^{nsym-1} (x - alpha^j), descending coefficients."""
        gen = np.array([1], dtype=np.int64)
        for j in range(self.nsym):
            gen = self.field.poly_mul(
                gen, np.array([1, self.field.alpha_pow(j)], dtype=np.int64)
            )
        return gen

    # -- encoding ------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Encode ``k`` data symbols into an ``n``-symbol systematic codeword.

        The returned array is ``message || parity``, the parity being the
        one-row case of :meth:`parity_many` (which rejects symbols
        outside the field).
        """
        message = np.asarray(message, dtype=np.int64)
        if message.shape != (self.k,):
            raise ValueError(f"message must have {self.k} symbols, got {message.shape}")
        return np.concatenate([message, self.parity_many(message[None])[0]])

    def _parity_generator_rows(self) -> np.ndarray:
        """The systematic parity map as a ``(k, nsym)`` matrix over GF(2^m).

        Row ``i`` holds the parity of the unit message ``e_i``, i.e. the
        (descending) coefficients of ``x^(n-1-i) mod g(x)``. Built
        iteratively from degree ``nsym`` upward — each step multiplies the
        running remainder by ``x`` and reduces by ``g`` — so the whole
        matrix costs ``k`` vectorized O(nsym) steps, not ``k`` polynomial
        divisions.
        """
        low = self._generator[1:].copy()  # x^nsym mod g (g is monic)
        rows = np.empty((self.k, self.nsym), dtype=np.int64)
        remainder = low
        rows[self.k - 1] = remainder
        for degree in range(self.nsym + 1, self.n):
            lead = int(remainder[0])
            remainder = np.concatenate(
                [remainder[1:], np.zeros(1, dtype=np.int64)]
            )
            if lead:
                remainder = remainder ^ self.field.scale_vec(low, lead)
            rows[self.n - 1 - degree] = remainder
        return rows

    def _parity_bit_matrix(self) -> np.ndarray:
        """Bit-plane expansion of the parity generator matrix.

        GF(2^m) multiplication is GF(2)-linear in the bits of either
        operand (``a * c = XOR over set bits t of a of (x^t * c)``), so the
        whole batched parity computation collapses to *one* 0/1 integer
        matrix product: bit ``s`` of ``parity[b, j]`` is the mod-2 count of
        ``message`` bits hitting generator entries whose ``x^t``-scaled
        value has bit ``s`` set. The returned matrix W has shape
        ``(k * m, nsym * m)`` with ``W[i*m + t, j*m + s] = bit_s(x^t *
        G[i, j])``, stored as float32 so the product runs through BLAS.
        float32 is exact here: a product cell counts fewer than ``2^20``
        ones, and float32 holds every integer below ``2^24``.
        """
        if self._parity_bits is None:
            rows = self._parity_generator_rows()
            shifts = np.arange(self.m, dtype=np.int64)
            bits = np.empty((self.k, self.m, self.nsym, self.m),
                            dtype=np.float32)
            for t in range(self.m):
                scaled = self.field.scale_vec(rows, 1 << t)
                bits[:, t, :, :] = (scaled[:, :, None] >> shifts) & 1
            self._parity_bits = bits.reshape(self.k * self.m,
                                             self.nsym * self.m)
        return self._parity_bits

    def parity_many(self, messages: np.ndarray) -> np.ndarray:
        """Parity symbols of many messages as one GF matrix product.

        ``messages`` is ``(B, k)``; the result is ``(B, nsym)``: row ``b``
        is the remainder of ``messages[b] * x^nsym`` divided by the
        generator polynomial. The systematic parity map is linear
        over GF(2^m), so the batch reduces to ``messages @ G_parity``,
        evaluated as a single bit-plane 0/1 matrix product (see
        :meth:`_parity_bit_matrix`) followed by a mod-2 reduction and bit
        re-packing — no per-codeword polynomial division.

        The product runs in float32 and is exact: each output cell sums
        at most ``k * m < 2^20`` products of 0 and 1, and float32 holds
        every integer below ``2^24``, so every partial sum is exact in
        whatever order BLAS adds.
        """
        messages = np.asarray(messages, dtype=np.int64)
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(
                f"messages must be (B, {self.k}), got {messages.shape}"
            )
        if messages.size and (messages.min() < 0
                              or messages.max() > self.field.max_value):
            raise ValueError("message symbols out of field range")
        if messages.shape[0] == 0:
            return np.zeros((0, self.nsym), dtype=np.int64)
        counts = self._bit_planes(messages) @ self._parity_bit_matrix()
        return self._pack_counts(counts)

    def _bit_planes(self, symbols: np.ndarray) -> np.ndarray:
        """``(B, c)`` symbols -> ``(B, c * m)`` float32 0/1 bit planes.

        One ``np.unpackbits`` over the symbols' little-endian bytes (one
        per symbol for ``m <= 8``, two for ``m <= 16``) keeps the first
        ``m`` bits of each, so bit ``t`` of ``symbols[b, i]`` lands at
        column ``i*m + t`` — the row layout of the bit matrices.
        """
        dtype = np.dtype(np.uint8 if self.m <= 8 else "<u2")
        octets = symbols.astype(dtype).view(np.uint8).reshape(
            symbols.shape[0], symbols.shape[1], dtype.itemsize
        )
        bits = np.unpackbits(octets, axis=2, count=self.m,
                             bitorder="little")
        return bits.reshape(
            symbols.shape[0], symbols.shape[1] * self.m
        ).astype(np.float32)

    def _pack_counts(self, counts: np.ndarray) -> np.ndarray:
        """``(B, nsym * m)`` bit counts -> ``(B, nsym)`` symbols: the
        mod-2 reduction and shift-sum re-pack of a bit-plane product."""
        shifts = np.arange(self.m, dtype=np.int64)
        bits = (counts.astype(np.int64) & 1).reshape(
            counts.shape[0], self.nsym, self.m
        )
        return (bits << shifts).sum(axis=2)

    # -- decoding ------------------------------------------------------------

    def decode(
        self,
        received: Sequence[int],
        erasures: Iterable[int] = (),
    ) -> Tuple[np.ndarray, int]:
        """Correct a received word and return ``(message, n_corrected)``.

        A one-row wrapper around :meth:`decode_many`; output (and the
        failure set) is pinned byte-identical to the frozen scalar chain
        (``tests/oracles/ecc.py``).

        Args:
            received: ``n`` symbols (erased positions may hold any value,
                conventionally 0).
            erasures: indices into ``received`` whose values are known to be
                unreliable (e.g. lost molecules).

        Returns:
            The corrected ``k`` data symbols and the number of symbols that
            were changed or filled (errors + erasures actually corrected).

        Raises:
            DecodeFailure: when ``2*errors + erasures > nsym`` or the
                locator polynomial is inconsistent.
        """
        word = np.asarray(received, dtype=np.int64)
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
        result = self.decode_many(word[None, :], [erasure_list])
        if not result.ok[0]:
            raise DecodeFailure(_batched.REASON_LABELS[int(result.reasons[0])])
        return result.messages[0], int(result.n_corrected[0])

    def decode_many(
        self,
        words: np.ndarray,
        erasure_table: "_batched.ErasureTable" = None,
    ) -> "_batched.BatchDecodeResult":
        """Error-and-erasure decode many received words in lockstep.

        The batched errata chain (:mod:`repro.ecc.batched`): one
        bit-plane syndrome product routes clean rows through a fast
        path, and the dirty remainder moves through erasure-locator
        construction, Berlekamp–Massey, the Chien search and Forney as a
        single ``(D, ...)`` computation per stage — no per-codeword
        Python loop. Failures are per-row flags instead of exceptions,
        so one uncorrectable codeword cannot serialize the batch.

        Args:
            words: ``(D, n)`` received words.
            erasure_table: per-row erasures — ``None``, a ``(D, n)``
                boolean mask, or one index sequence per row (duplicates
                collapse; indices are range-checked).

        Returns:
            A :class:`~repro.ecc.batched.BatchDecodeResult`; row ``d``
            carries exactly what :meth:`decode` would return for
            ``words[d]`` (or the reason it would raise
            :class:`DecodeFailure`).
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"words must be (B, {self.n}), got {words.shape}")
        if words.size and (words.min() < 0
                           or words.max() > self.field.max_value):
            raise ValueError("word symbols out of field range")
        mask = _batched.as_erasure_mask(
            erasure_table, words.shape[0], self.n
        )
        return _batched.decode_words(self, words, mask)

    def _syndrome_bit_matrix(self) -> np.ndarray:
        """Bit-plane expansion of the syndrome map (see
        :meth:`_parity_bit_matrix` for the construction): ``S_j =
        sum_i word[i] * alpha^(j * (n-1-i))`` is GF-linear in the word,
        so all syndromes of all words reduce to one 0/1 matrix product.
        Shape ``(n * m, nsym * m)`` with ``V[i*m + t, j*m + s] =
        bit_s(x^t * alpha^(j*(n-1-i)))``, stored float32 for BLAS: a
        product cell counts fewer than ``2^20`` ones, below float32's
        ``2^24`` integer limit, so the product is exact.
        """
        if self._syndrome_points is None:
            powers = np.array(
                [[self.field.alpha_pow(j * (self.n - 1 - i))
                  for j in range(self.nsym)] for i in range(self.n)],
                dtype=np.int64,
            )  # (n, nsym)
            shifts = np.arange(self.m, dtype=np.int64)
            bits = np.empty((self.n, self.m, self.nsym, self.m),
                            dtype=np.float32)
            for t in range(self.m):
                scaled = self.field.scale_vec(powers, 1 << t)
                bits[:, t, :, :] = (scaled[:, :, None] >> shifts) & 1
            self._syndrome_points = bits.reshape(self.n * self.m,
                                                 self.nsym * self.m)
        return self._syndrome_points

    def syndromes_many(self, words: np.ndarray) -> np.ndarray:
        """Syndromes of many received words as one GF matrix product.

        ``words`` is ``(B, n)``; the result is ``(B, nsym)``: ``S_j =
        C(alpha^j)`` for ``j = 0..nsym-1``, with the word read as the
        polynomial ``C``. Like :meth:`parity_many`, the GF-linear map runs
        as a single bit-plane 0/1 matrix product (mod-2 reduced and
        re-packed), so checking a whole store's codewords costs one BLAS
        call instead of ``B * n`` scalar field operations. A word is a
        valid codeword exactly when its syndrome row is all zero.

        The float32 product is exact: a cell sums at most ``n * m <=
        (2^16 - 1) * 16 < 2^20`` products of 0 and 1, below float32's
        ``2^24`` integer limit, whatever order BLAS adds in.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"words must be (B, {self.n}), got {words.shape}")
        if words.size and (words.min() < 0
                           or words.max() > self.field.max_value):
            raise ValueError("word symbols out of field range")
        counts = self._bit_planes(words) @ self._syndrome_bit_matrix()
        return self._pack_counts(counts)

    def check(self, word: Sequence[int]) -> bool:
        """Return True if ``word`` is a valid codeword: the one-row case
        of :meth:`syndromes_many` (which rejects symbols outside the
        field) is all zero."""
        word = np.asarray(word, dtype=np.int64)
        if word.shape != (self.n,):
            raise ValueError(f"word must have {self.n} symbols, got {word.shape}")
        return not self.syndromes_many(word[None]).any()

    def __repr__(self) -> str:
        return f"ReedSolomon(m={self.m}, n={self.n}, k={self.k}, nsym={self.nsym})"
