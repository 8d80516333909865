"""Batched RS errata decoding: BM/Chien/Forney across many codewords.

The scalar decoder (frozen in ``tests/oracles/ecc.py``) walks one
codeword at a time through Berlekamp–Massey, the Chien search and the
Forney algorithm — the last per-codeword Python loop on the decode path.
This module runs the whole chain across *all dirty codewords of all
units* in lockstep:

* the erasure locator is built as a vectorized polynomial product — one
  ``(D, nsym+2)`` coefficient matrix, one masked multiply-by-``(1 +
  root·x)`` step per erasure rank;
* Berlekamp–Massey runs as at most ``nsym`` lockstep iterations over the
  same coefficient matrix — each row joins the iteration at ``k = rho``
  (its erasure count, so fully-erased rows never iterate at all), with
  the conditional swap/update applied as masked row operations and the
  discrepancy's inner product bounded by the longest live locator;
* the Chien search is one many-polynomials-at-many-points evaluation
  (:meth:`~repro.ecc.gf.GaloisField.poly_eval_grid` over the cached
  inverse roots);
* Forney evaluates all rows' Omega products and locator derivatives at
  every root in one flattened ``(row, root)`` pass.

Failures are per-row *flags* instead of exceptions — the same verdicts
the scalar chain raises (`erasure budget exceeded`, `locator degree
mismatch`, `capability overflow`, `zero Forney derivative`, `residual
syndromes`) become reason codes so one bad codeword cannot serialize the
batch. ``tests/ecc/test_batched_vs_reference.py`` pins the whole result —
corrected symbols, corrected counts, and the failure set — byte-identical
to the frozen scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

from repro.observability.trace import get_tracer

#: Per-row failure reasons (``BatchDecodeResult.reasons``). ``OK`` is 0 so
#: ``reasons.astype(bool)`` is the failure mask.
OK = 0
TOO_MANY_ERASURES = 1
BAD_LOCATOR = 2
DEGREE_MISMATCH = 3
CAPABILITY_EXCEEDED = 4
DERIVATIVE_ZERO = 5
RESIDUAL_SYNDROMES = 6

REASON_LABELS = {
    OK: "ok",
    TOO_MANY_ERASURES: "erasures exceed correction capability",
    BAD_LOCATOR: "locator constant term is not 1",
    DEGREE_MISMATCH: "locator degree does not match root count",
    CAPABILITY_EXCEEDED: "errors + erasures exceed capability",
    DERIVATIVE_ZERO: "Forney derivative evaluated to zero",
    RESIDUAL_SYNDROMES: "residual syndromes after correction",
}


def reason_counts(reasons: np.ndarray) -> Dict[str, int]:
    """Collapse a reason-code array into a ``{label: count}`` dict.

    Only labels that actually occur appear; the single bincount here is
    shared by :meth:`BatchDecodeResult.reason_counts` and the metrics
    layer's RS failure-reason histogram, so the two can never disagree.
    """
    reasons = np.asarray(reasons, dtype=np.int64)
    if reasons.size == 0:
        return {}
    counts = np.bincount(reasons, minlength=len(REASON_LABELS))
    return {
        REASON_LABELS[code]: int(count)
        for code, count in enumerate(counts)
        if count
    }


@dataclass
class BatchDecodeResult:
    """Outcome of one :meth:`ReedSolomon.decode_many` call.

    Attributes:
        messages: ``(D, k)`` corrected data symbols. Rows that failed
            hold the erasure-zeroed received prefix (callers must gate on
            ``ok``).
        n_corrected: ``(D,)`` symbols corrected per row (errata-locator
            degree on the dirty path, the erasure count on the clean
            fast path) — exactly the scalar decoder's second return.
        ok: ``(D,)`` True where the row decoded.
        reasons: ``(D,)`` failure reason codes (see module constants);
            0 (``OK``) for successful rows.
    """

    messages: np.ndarray
    n_corrected: np.ndarray
    ok: np.ndarray
    reasons: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.ok.shape[0]

    def failed_rows(self) -> np.ndarray:
        """Indices of rows that did not decode, ascending."""
        return np.flatnonzero(~self.ok)

    def reason_counts(self) -> Dict[str, int]:
        """Per-row outcomes as ``{label: count}`` (see
        :func:`reason_counts`); ``"ok"`` counts the successful rows."""
        return reason_counts(self.reasons)


ErasureTable = Union[None, np.ndarray, Sequence[Sequence[int]]]


def as_erasure_mask(
    erasure_table: ErasureTable, n_rows: int, n: int
) -> np.ndarray:
    """Normalize any accepted erasure form into a ``(D, n)`` boolean mask.

    Accepts ``None`` (no erasures), a boolean mask (used as-is), or one
    index sequence per row (duplicates collapse, like the scalar
    decoder's ``sorted(set(...))``). Raises ValueError on out-of-range
    indices or a shape mismatch.
    """
    if erasure_table is None:
        return np.zeros((n_rows, n), dtype=bool)
    if isinstance(erasure_table, np.ndarray) and erasure_table.dtype == bool:
        if erasure_table.shape != (n_rows, n):
            raise ValueError(
                f"erasure mask must be ({n_rows}, {n}), "
                f"got {erasure_table.shape}"
            )
        return erasure_table
    if len(erasure_table) != n_rows:
        raise ValueError(
            f"erasure table must have one entry per row ({n_rows}), "
            f"got {len(erasure_table)}"
        )
    mask = np.zeros((n_rows, n), dtype=bool)
    for row, erasures in enumerate(erasure_table):
        positions = np.asarray(list(erasures), dtype=np.int64)
        if positions.size and (positions.min() < 0 or positions.max() >= n):
            raise ValueError(
                f"row {row}: erasure index out of range [0, {n})"
            )
        mask[row, positions] = True
    return mask


def decode_words(
    rs, words: np.ndarray, erasure_mask: np.ndarray
) -> BatchDecodeResult:
    """Decode ``(D, n)`` received words with per-row erasure masks.

    ``rs`` is the owning :class:`~repro.ecc.reed_solomon.ReedSolomon`
    (field tables, cached roots, ``syndromes_many``). Row ``d`` is
    decoded exactly as ``rs``'s scalar reference would decode
    ``words[d]`` with ``np.flatnonzero(erasure_mask[d])`` as erasures —
    same corrected symbols, same counts, same failure verdicts — but the
    whole batch moves through each chain stage together.
    """
    nsym, k = rs.nsym, rs.k
    n_rows = words.shape[0]

    with get_tracer().span("rs.decode_words", n_rows=n_rows) as span:
        rho = erasure_mask.sum(axis=1).astype(np.int64)
        reasons = np.zeros(n_rows, dtype=np.int64)
        reasons[rho > nsym] = TOO_MANY_ERASURES

        zeroed = np.where(erasure_mask, 0, words)
        messages = zeroed[:, :k].copy()
        if n_rows == 0:
            return BatchDecodeResult(
                messages=messages,
                n_corrected=np.zeros(0, dtype=np.int64),
                ok=np.ones(0, dtype=bool),
                reasons=reasons,
            )

        syndromes = rs.syndromes_many(zeroed)
        dirty = np.any(syndromes != 0, axis=1)
        # Clean fast path: the zeroed word already is a codeword, so every
        # erased symbol was genuinely zero. Count matches the scalar early
        # return (the erasure count).
        n_corrected = np.where(dirty, 0, rho)

        rows = np.flatnonzero(dirty & (reasons == OK))
        span.set(n_dirty=rows.size)
        if rows.size:
            sub = _decode_dirty(rs, zeroed[rows], syndromes[rows],
                                erasure_mask[rows], rho[rows])
            messages[rows] = sub.messages
            n_corrected[rows] = sub.n_corrected
            reasons[rows] = sub.reasons

        ok = reasons == OK
    return BatchDecodeResult(
        messages=messages, n_corrected=n_corrected, ok=ok, reasons=reasons
    )


def _decode_dirty(
    rs, zeroed: np.ndarray, syndromes: np.ndarray,
    erasure_mask: np.ndarray, rho: np.ndarray,
) -> BatchDecodeResult:
    """The errata chain over an already-compacted dirty batch."""
    field = rs.field
    nsym, k = rs.nsym, rs.k
    n_rows = zeroed.shape[0]
    reasons = np.zeros(n_rows, dtype=np.int64)

    locator, _ = _berlekamp_massey_many(rs, syndromes, erasure_mask, rho)

    # Trailing-zero trim: the locator degree is the last nonzero index
    # (the scalar chain pops trailing zeros; constant term stays).
    nonzero = locator != 0
    width = locator.shape[1]
    degree = np.where(
        nonzero.any(axis=1),
        width - 1 - np.argmax(nonzero[:, ::-1], axis=1),
        0,
    )
    reasons[locator[:, 0] != 1] = BAD_LOCATOR

    # Chien search: every locator at every received position at once.
    evaluations = field.poly_eval_grid(locator[:, ::-1], rs._inv_roots)
    root_mask = evaluations == 0
    n_roots = root_mask.sum(axis=1)
    live = reasons == OK
    reasons[live & (n_roots != degree)] = DEGREE_MISMATCH
    live = reasons == OK
    n_errors = degree - rho
    reasons[live & (2 * n_errors + rho > nsym)] = CAPABILITY_EXCEEDED

    corrected = zeroed.copy()
    surv = np.flatnonzero(reasons == OK)
    if surv.size:
        deriv_zero_rows, row_ids, positions, magnitudes = _forney_many(
            rs, syndromes[surv], locator[surv], root_mask[surv]
        )
        reasons[surv[deriv_zero_rows]] = DERIVATIVE_ZERO
        keep = ~np.isin(row_ids, deriv_zero_rows)
        corrected[surv[row_ids[keep]], positions[keep]] ^= magnitudes[keep]

    surv = np.flatnonzero(reasons == OK)
    if surv.size:
        residual = np.any(rs.syndromes_many(corrected[surv]) != 0, axis=1)
        reasons[surv[residual]] = RESIDUAL_SYNDROMES

    ok = reasons == OK
    return BatchDecodeResult(
        messages=np.where(ok[:, None], corrected[:, :k], zeroed[:, :k]),
        n_corrected=np.where(ok, degree, 0),
        ok=ok,
        reasons=reasons,
    )


def _erasure_locators_many(
    rs, erasure_mask: np.ndarray, rho: np.ndarray, width: int
) -> np.ndarray:
    """Every row's Gamma(x) = prod (1 + alpha^d x) as one coefficient
    matrix (ascending columns), built in ``max(rho)`` vectorized steps.

    Step ``t`` multiplies each row that still has a ``t``-th erasure by
    its ``(1 + root_t x)`` factor; rows past their erasure count carry a
    zero root, making the masked update a no-op.
    """
    field = rs.field
    n_rows = erasure_mask.shape[0]
    locator = np.zeros((n_rows, width), dtype=np.int64)
    locator[:, 0] = 1
    max_rho = int(rho.max()) if n_rows else 0
    if max_rho == 0:
        return locator
    # Rank the erased positions within each row (np.nonzero is row-major,
    # so positions come out ascending per row, matching the scalar
    # sorted-set order).
    row_ids, positions = np.nonzero(erasure_mask)
    offsets = np.concatenate([[0], np.cumsum(rho)[:-1]])
    ranks = np.arange(row_ids.size) - np.repeat(offsets, rho)
    roots = np.zeros((n_rows, max_rho), dtype=np.int64)
    roots[row_ids, ranks] = rs._roots[positions]
    for t in range(max_rho):
        locator[:, 1:] ^= field.mul_vec(locator[:, :-1], roots[:, t: t + 1])
    return locator


def _berlekamp_massey_many(
    rs, syndromes: np.ndarray, erasure_mask: np.ndarray, rho: np.ndarray
):
    """Lockstep Berlekamp–Massey seeded with the erasure locators.

    Returns ``(locator, len_loc)``: the ``(D, nsym+2)`` ascending
    coefficient matrix and the scalar chain's *list length* per row (the
    length bookkeeping — not the polynomial degree — drives the
    conditional swap, so it is tracked explicitly).
    """
    field = rs.field
    nsym = rs.nsym
    n_rows = syndromes.shape[0]
    # nsym+2 columns: list lengths never exceed nsym+1, so the final
    # column only ever absorbs the multiply-by-x shift of a zero.
    width = nsym + 2
    locator = _erasure_locators_many(rs, erasure_mask, rho, width)
    previous = locator.copy()
    len_loc = rho + 1
    len_prev = rho + 1

    start = int(rho.min()) if n_rows else nsym
    for step in range(start, nsym):
        active = step >= rho
        if not np.any(active):
            continue
        # Discrepancy: delta = S_k ^ sum_j L_j * S_{k-j}. The inner
        # product only needs j below the longest live locator list —
        # rows at their fixed point (all later coefficients zero)
        # contribute nothing beyond it.
        delta = syndromes[:, step].copy()
        j_hi = min(step, int(len_loc.max()) - 1, width - 1)
        for j in range(1, j_hi + 1):
            delta ^= field.mul_vec(locator[:, j], syndromes[:, step - j])

        # previous *= x (ascending shift) for the active rows.
        previous[active, 1:] = previous[active, :-1]
        previous[active, 0] = 0
        len_prev[active] += 1

        update = active & (delta != 0)
        if not np.any(update):
            continue
        swap = update & (len_prev > len_loc)
        if np.any(swap):
            delta_swap = delta[swap][:, None]
            new_locator = field.mul_vec(previous[swap], delta_swap)
            new_previous = field.mul_vec(
                locator[swap], field.inv_vec(delta[swap])[:, None]
            )
            locator[swap] = new_locator
            previous[swap] = new_previous
            len_loc_swap = len_loc[swap]
            len_loc[swap] = len_prev[swap]
            len_prev[swap] = len_loc_swap
        locator[update] ^= field.mul_vec(
            previous[update], delta[update][:, None]
        )
        len_loc[update] = np.maximum(len_loc[update], len_prev[update])
    return locator, len_loc


def _forney_many(rs, syndromes: np.ndarray, locator: np.ndarray,
                 root_mask: np.ndarray):
    """Batched Forney: magnitudes for every (row, root) pair at once.

    Returns ``(deriv_zero_rows, row_ids, positions, magnitudes)`` —
    rows whose locator derivative vanishes at any of their roots (the
    scalar chain's DecodeFailure), and the flattened correction triples
    for all roots.
    """
    field = rs.field
    nsym = rs.nsym
    n_rows = syndromes.shape[0]
    width = locator.shape[1]

    # Omega(x) = S(x) * Lambda(x) mod x^nsym, ascending — one vectorized
    # diagonal per locator coefficient instead of a per-row convolution.
    omega = np.zeros((n_rows, nsym), dtype=np.int64)
    for j in range(min(width, nsym)):
        omega[:, j:] ^= field.mul_vec(
            locator[:, j: j + 1], syndromes[:, : nsym - j]
        )

    row_ids, positions = np.nonzero(root_mask)
    if row_ids.size == 0:
        return (np.zeros(0, dtype=np.int64), row_ids, positions,
                np.zeros(0, dtype=np.int64))
    x_inv = rs._inv_roots[positions]
    x = rs._roots[positions]

    # Omega(x_inv), all pairs in one Horner sweep (descending order).
    omega_val = np.zeros(row_ids.size, dtype=np.int64)
    for c in range(nsym - 1, -1, -1):
        omega_val = field.mul_vec(omega_val, x_inv) ^ omega[row_ids, c]

    # Lambda'(x_inv): odd ascending coefficients evaluated at x_inv^2.
    derivative = locator[:, 1::2]
    x_inv_sq = field.mul_vec(x_inv, x_inv)
    deriv_val = np.zeros(row_ids.size, dtype=np.int64)
    for c in range(derivative.shape[1] - 1, -1, -1):
        deriv_val = field.mul_vec(deriv_val, x_inv_sq) \
            ^ derivative[row_ids, c]

    zero = deriv_val == 0
    deriv_zero_rows = np.unique(row_ids[zero])
    magnitudes = np.zeros(row_ids.size, dtype=np.int64)
    good = ~zero
    if np.any(good):
        magnitudes[good] = field.mul_vec(
            x[good], field.div_vec(omega_val[good], deriv_val[good])
        )
    return deriv_zero_rows, row_ids, positions, magnitudes
