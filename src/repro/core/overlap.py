"""Overlap detection: matrices ``A``/``S``, the count matrix ``B`` and
candidate-pair extraction.

``B = A Aᵀ``, or ``(A S) Aᵀ`` plus the symmetrization merge, holds the
shared-k-mer count, all CK (Section VI) reads; a pair's seeds are joined
once it survives, from the operands the ``B`` SUMMA broadcast anyway
(:func:`block_seeds`) — the filter/verify split of set-similarity joins.
:func:`find_candidate_pairs` is the whole-store entry: the pipeline's own
overlap stage on one inline rank.  The paper's literal object formulation
is the tests' oracle; :func:`symmetrize_candidates` also merges the
record ``B`` of :mod:`repro.core.semirings`' one-pass formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bio.scoring import ScoringMatrix
from ..bio.sequences import SequenceStore
from ..kmers.encoding import kmer_space_size
from ..kmers.extraction import store_kmers
from ..kmers.substitutes import substitute_kmers_batch
from ..sparse.coo import (
    COOMatrix,
    group_coords,
    in_sorted,
    sorted_unique,
)
from ..sparse.spgemm import masked_products
from .config import PastisConfig
from .semirings import (
    CK_SEED_NONE,
    SEED_ENCODE_SHIFT,
    check_seed_distances,
    is_ck_records,
    lowest_seeds,
    pack_seeds,
    unpack_seeds,
)

__all__ = [
    "CandidatePairs",
    "block_seeds",
    "build_a_triples",
    "build_s_triples",
    "check_s_triples",
    "ck_keep_mask",
    "find_candidate_pairs",
    "find_candidate_pairs_struct",
    "orient_seeds",
    "pairs_from_block",
    "symmetrize_candidates",
]


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------


def build_a_triples(
    store: SequenceStore, k: int, row_offset: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, kmer id, position)`` triples of matrix ``A`` for a store;
    ``row_offset`` shifts rows to global sequence ids in the distributed
    pipeline."""
    rows, cols, vals = store_kmers(store, k)
    return rows + row_offset, cols, vals


#: Unrestricted entries of ``S`` (roots times ``m + 1``) built per search
#: call: each chunk is restricted before the next is built, so the
#: unrestricted ``S`` is never held whole.
_S_CHUNK_ENTRIES = 1 << 18


def build_s_triples(
    kmer_ids: np.ndarray,
    k: int,
    m: int,
    scoring: ScoringMatrix,
    restrict_to: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kmer, substitute kmer, distance)`` triples of matrix ``S`` for the
    given (unique) k-mer ids, identity included at distance 0.

    ``restrict_to`` (sorted array) drops substitute columns for k-mers that
    occur nowhere in the dataset — they cannot match anything in ``Aᵀ``, so
    removing them changes no result while shrinking ``S``.
    """
    roots = sorted_unique(kmer_ids)
    chunk = max(1, _S_CHUNK_ENTRIES // (m + 1))
    parts = []
    # one call even without roots: it gives the empty triples their dtypes
    for lo in range(0, max(len(roots), 1), chunk):
        part = roots[lo:lo + chunk]
        sub_ids, sub_dist = substitute_kmers_batch(part, k, m, scoring)
        # row-major: every root's identity entry, then its substitutes
        rows = np.repeat(part, sub_ids.shape[1] + 1)
        cols = np.column_stack((part, sub_ids)).ravel()
        dists = np.column_stack((np.zeros_like(part), sub_dist)).ravel()
        if restrict_to is not None:
            keep = in_sorted(np.asarray(restrict_to, dtype=np.int64), cols)
            rows, cols, dists = rows[keep], cols[keep], dists[keep]
        parts.append((rows, cols, dists))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def check_s_triples(s_triples, k: int) -> None:
    """Raise a :class:`ValueError` naming the failed condition unless an
    injected ``S`` is three equal-length 1-D integer arrays ``(kmer,
    substitute, distance)``, both ids in ``[0, 24^k)`` and every distance
    inside the seed pack — checked by the driver before any rank starts,
    so it reads the same at every rank count."""
    arrays = [np.asarray(x) for x in s_triples]
    if len(arrays) != 3:
        raise ValueError("s_triples: expected 3 arrays "
                         "(kmer, substitute, distance)")
    if any(x.ndim != 1 or (x.size and x.dtype.kind not in "iu")
           for x in arrays):
        raise ValueError("s_triples: each array must be 1-D of integers")
    if len({len(x) for x in arrays}) != 1:
        raise ValueError("s_triples: arrays of unequal length")
    for name, ids in zip(("k-mer", "substitute"), arrays):
        if ids.size and (ids.min() < 0 or ids.max() >= kmer_space_size(k)):
            raise ValueError(f"s_triples: {name} id outside [0, 24^{k})")
    check_seed_distances(arrays[2])


# ---------------------------------------------------------------------------
# results container
# ---------------------------------------------------------------------------


def ck_keep_mask(counts, t: int | None) -> np.ndarray:
    """The CK predicate (Section VI): keep pairs sharing *strictly more*
    than ``t`` (substitute) k-mers, everything when ``t`` is ``None``;
    works on scalars and arrays.

    This is the single definition of the ``>`` semantics, read by
    :func:`pairs_from_block` (the pipeline's CK site, every rank count)
    and :meth:`CandidatePairs.apply_ck_threshold`, so the boundary
    behaviour is the same everywhere (a tested invariant).
    """
    counts = np.asarray(counts)
    if t is None:
        return np.ones(counts.shape, dtype=bool)
    return counts > t


@dataclass
class CandidatePairs:
    """Upper-triangle candidate pairs with shared counts and seeds.

    ``seed_*`` arrays have shape ``(npairs, MAX_SEEDS)``; unused slots hold
    -1.  ``seed_pos_i[p, s]`` is the seed start on sequence ``ri[p]``.
    """

    n: int
    ri: np.ndarray
    rj: np.ndarray
    counts: np.ndarray
    seed_pos_i: np.ndarray
    seed_pos_j: np.ndarray
    seed_dist: np.ndarray

    @property
    def npairs(self) -> int:
        return len(self.ri)

    def take(self, sel: np.ndarray) -> "CandidatePairs":
        """The pairs a mask or an index array selects, in that order."""
        return CandidatePairs(
            self.n, self.ri[sel], self.rj[sel], self.counts[sel],
            self.seed_pos_i[sel], self.seed_pos_j[sel], self.seed_dist[sel],
        )

    def apply_ck_threshold(self, t: int | None) -> "CandidatePairs":
        """Drop pairs sharing ``t`` or fewer k-mers (the CK variant), a
        filter on the count column; a no-op on the survivors
        :func:`find_candidate_pairs` returns for the same ``t``."""
        if t is None:
            return self
        return self.take(ck_keep_mask(self.counts, t))

    def seeds_of(self, p: int) -> list[tuple[int, int]]:
        """Valid ``(pos_i, pos_j)`` seed pairs of pair index ``p``."""
        return [
            (i, j)
            for i, j in zip(
                self.seed_pos_i[p].tolist(), self.seed_pos_j[p].tolist()
            )
            if i >= 0
        ]

    def pair_set(self) -> set[tuple[int, int]]:
        return {
            (int(a), int(b)) for a, b in zip(self.ri, self.rj)
        }

    def sort(self) -> "CandidatePairs":
        return self.take(np.lexsort((self.rj, self.ri)))


# ---------------------------------------------------------------------------
# symmetrization of B
# ---------------------------------------------------------------------------


def symmetrize_candidates(
    b: COOMatrix,
    row_offset: int,
    col_offset: int,
    mirror: COOMatrix,
    return_winner: bool = False,
):
    """``B ∪ Bᵀ`` on shared counts: the merged block and, with
    ``return_winner``, per merged entry the index of its winning directed
    entry in ``b`` followed by ``mirror`` (``>= b.nnz``: the mirror won).

    The direction with the larger shared count wins; on ties the
    *forward* one — whose substitutes were expanded from the smaller
    global sequence id — so the result is canonical whatever the
    evaluation order.  ``row_offset`` / ``col_offset`` translate
    block-local coordinates to global ids (the tie-break needs them).
    ``mirror`` is the partner block at ``(col_offset, row_offset)``
    *transposed into this block's index space*, so its entry at local
    ``(r, c)`` is the directed value of global ``(col_offset + c,
    row_offset + r)``, AS side ``col_offset + c`` (a square diagonal
    block's mirror is its own transpose).

    Values are counts (the pipeline's ``B``) or
    :data:`~repro.core.semirings.CK_DTYPE` records, the same in ``b`` and
    ``mirror``; a mirror-won record's seeds are flipped to this block's
    orientation.
    """
    if mirror.shape != b.shape:
        raise ValueError(
            f"mirror shape {mirror.shape} does not match block {b.shape}"
        )
    rows = np.concatenate((b.rows, mirror.rows))
    cols = np.concatenate((b.cols, mirror.cols))
    vals = np.concatenate((b.vals, mirror.vals))
    records = is_ck_records(vals)
    counts = (vals["count"] if records else vals).astype(np.int64)
    # as_side = global id of the sequence whose substitutes were expanded
    # (the AS-side row of the original directed entry)
    side = np.concatenate((b.rows + row_offset, mirror.cols + col_offset))
    # forward entries first: the stable sort makes them win full ties
    flag = np.concatenate(
        (np.zeros(b.nnz, dtype=np.int64), np.ones(mirror.nnz, dtype=np.int64))
    )
    # per coordinate: count descending, AS side ascending, forward first —
    # the first entry of every (row, col) group is the canonical winner
    order, starts, _, out_rows, out_cols = group_coords(
        rows, cols, tiebreak=(flag, side, -counts)
    )
    winner = order[starts]
    if records:
        out_vals = vals[winner]
        out_vals["seeds"] = orient_seeds(out_vals["seeds"], winner >= b.nnz)
    else:
        out_vals = counts[winner]
    merged = COOMatrix(b.nrows, b.ncols, out_rows, out_cols, out_vals)
    return (merged, winner) if return_winner else merged


# ---------------------------------------------------------------------------
# seeds, after CK
# ---------------------------------------------------------------------------


def block_seeds(
    left: COOMatrix,
    right: COOMatrix,
    rows: np.ndarray,
    cols: np.ndarray,
    swap: np.ndarray,
) -> np.ndarray:
    """The packed seeds of the ``B`` entries ``(rows[e], cols[e])``: one
    masked join of ``left`` (``A`` or ``AS``: positions or packed seed
    hits) against ``right`` (``Aᵀ``: positions) on the k-mer id, keeping
    each entry's ``MAX_SEEDS`` lowest.

    Entry ``e`` packs its seeds as ``(pos_row, pos_col, distance)``, or
    as ``(pos_col, pos_row, distance)`` where ``swap[e]`` — *before* the
    cut, so the kept seeds are the lowest of that orientation.  Returns
    an ``(len(rows), MAX_SEEDS)`` int64 array, ascending per row, padded
    with :data:`~repro.core.semirings.CK_SEED_NONE`.
    """
    entry, hit, pos_col = masked_products(left, right, rows, cols)
    # a position of A decodes as distance 0 (positions < SEED_ENCODE_SHIFT)
    pos_row, dist = hit % SEED_ENCODE_SHIFT, hit // SEED_ENCODE_SHIFT
    sw = np.asarray(swap, dtype=bool)[entry]
    packed = pack_seeds(np.where(sw, pos_col, pos_row),
                        np.where(sw, pos_row, pos_col), dist)
    return lowest_seeds(entry, packed, len(rows))


def orient_seeds(packed: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """Swap the two positions of every seed in the rows ``swap`` selects,
    then restore ascending canonical order per row; sentinel slots stay
    sentinels at the tail."""
    valid = packed != CK_SEED_NONE
    pos_row, pos_col, dist = (np.where(valid, x, 0)
                              for x in unpack_seeds(packed))
    flipped = np.where(valid, pack_seeds(pos_col, pos_row, dist),
                       CK_SEED_NONE)
    out = np.where(np.asarray(swap, dtype=bool)[:, None], flipped, packed)
    out.sort(axis=1)
    return out


# ---------------------------------------------------------------------------
# candidate pairs
# ---------------------------------------------------------------------------


def pairs_from_block(
    n: int,
    block: COOMatrix,
    seeds_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    row_offset: int = 0,
    col_offset: int = 0,
    owns_diagonal: bool = False,
    threshold: int | None = None,
) -> tuple[CandidatePairs, int]:
    """The CK survivors, with their seeds, among the candidate pairs one
    block of the symmetric ``n x n`` count matrix ``B`` is responsible for
    (Fig. 11), and the number of candidates before CK.

    Block ``(pi, pj)`` local ``(r, c)`` mirrors block ``(pj, pi)`` local
    ``(c, r)``, so ``r < c`` in every block, plus ``r == c`` in the blocks
    above the grid diagonal (``owns_diagonal``), covers every off-diagonal
    pair exactly once.  Global self-pairs are dropped, and a pair held as
    ``(hi, lo)`` becomes ``(lo, hi)``: ``seeds_of(idx, swap)`` returns the
    packed seeds of block entries ``idx`` in ``(lo, hi)`` orientation,
    ``swap`` marking those held as ``(hi, lo)``.  Entry order is kept: the
    graph bytes depend on it.
    """
    candidates = block.rows < block.cols
    if owns_diagonal:
        candidates |= block.rows == block.cols
    candidates &= block.rows + row_offset != block.cols + col_offset
    idx = np.flatnonzero(candidates & ck_keep_mask(block.vals, threshold))
    gi = block.rows[idx] + row_offset
    gj = block.cols[idx] + col_offset
    swap = gi > gj
    packed = seeds_of(idx, swap)
    valid = packed != CK_SEED_NONE
    pos_i, pos_j, dist = (np.where(valid, x, -1) for x in unpack_seeds(packed))
    pairs = CandidatePairs(
        n, np.where(swap, gj, gi), np.where(swap, gi, gj),
        block.vals[idx].astype(np.int64), pos_i, pos_j, dist,
    )
    return pairs, int(np.count_nonzero(candidates))


def find_candidate_pairs(
    store: SequenceStore,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CandidatePairs:
    """Overlap detection for a whole store: the pipeline's overlap stage
    (:func:`repro.core.distributed.block_pairs`) on one inline rank, whose
    single block is all of ``B``.  Returns the pairs surviving
    ``config.common_kmer_threshold`` (every candidate when it is ``None``)
    with their seeds, sorted by ``(i, j)``.  ``s_triples`` allows reusing
    a precomputed ``S`` (:func:`check_s_triples`).  Agrees exactly with
    the tests' oracles (a tested invariant).
    """
    # deferred imports: core.distributed builds on this module
    from ..mpisim.backend import run_spmd
    from .distributed import store_pairs

    if s_triples is not None:
        check_s_triples(s_triples, config.k)
    [pairs] = run_spmd(1, store_pairs, store, config, s_triples)
    return pairs.sort()


#: The record formulation's entry point (``benchmarks/e2e`` times it): a
#: whole-store ``B`` is one diagonal block, whose records and counts give
#: the same pairs and seeds, so it is :func:`find_candidate_pairs`.
find_candidate_pairs_struct = find_candidate_pairs
