"""Overlap detection: matrices ``A``/``S`` and candidate-pair extraction.

One matrix model — ``B = A Aᵀ``, or ``B = (A S) Aᵀ`` plus the
symmetrization merge — with two whole-store entries:

* :func:`find_candidate_pairs` — the pipeline's own overlap stage
  (:func:`repro.core.distributed.block_pairs`: SUMMA over
  :func:`~repro.sparse.spgemm.spgemm_coo` on the packed-record
  semirings) on one inline rank; there is no second formulation of the
  fast path to drift from the driver's.
* :func:`find_candidate_pairs_semiring` — the literal one: object
  semirings through the scalar :func:`~repro.sparse.spgemm.spgemm_hash`.
  Slow, always correct; the oracle the tests validate the pipeline
  against, reachable from no driver.

Both return :class:`CandidatePairs`: for every unordered sequence pair
``(i < j)`` sharing at least one (substitute) k-mer, the shared count and up
to :data:`~repro.core.semirings.MAX_SEEDS` seed positions; exact agreement
of the two is a tested invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bio.scoring import ScoringMatrix
from ..bio.sequences import SequenceStore
from ..kmers.extraction import store_kmers
from ..kmers.substitutes import substitute_kmers_batch
from ..sparse.coo import COOMatrix, group_coords, sorted_unique
from ..sparse.csr import CSRMatrix
from ..sparse.spgemm import spgemm_hash
from .config import PastisConfig
from .semirings import (
    CK_SEED_FIELDS,
    CK_SEED_NONE,
    MAX_SEEDS,
    CommonKmers,
    check_seed_distances,
    ck_flip_records,
    is_ck_records,
    exact_overlap_semiring,
    substitute_as_semiring,
    substitute_overlap_semiring,
    unpack_seeds,
)

__all__ = [
    "CandidatePairs",
    "build_a_triples",
    "build_s_triples",
    "ck_keep_mask",
    "find_candidate_pairs",
    "find_candidate_pairs_semiring",
    "find_candidate_pairs_struct",
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
            keep = _in_sorted(np.asarray(restrict_to, dtype=np.int64), cols)
            rows, cols, dists = rows[keep], cols[keep], dists[keep]
        parts.append((rows, cols, dists))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


# ---------------------------------------------------------------------------
# results container
# ---------------------------------------------------------------------------


def ck_keep_mask(counts, t: int) -> np.ndarray:
    """The CK predicate (Section VI): keep pairs sharing *strictly more*
    than ``t`` (substitute) k-mers; works on scalars and arrays.

    This is the single definition of the ``>`` semantics;
    :meth:`CandidatePairs.apply_ck_threshold` is its one caller, so the
    boundary behaviour is the same at every rank count (a tested
    invariant).
    """
    return np.asarray(counts) > t


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
        """Drop pairs sharing ``t`` or fewer k-mers (the CK variant) — the
        pipeline's one CK site, a filter on the count column."""
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


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in a sorted array."""
    if len(sorted_arr) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.clip(np.searchsorted(sorted_arr, values), 0,
                  len(sorted_arr) - 1)
    return sorted_arr[pos] == values


# ---------------------------------------------------------------------------
# symmetrization of B
# ---------------------------------------------------------------------------


def symmetrize_candidates(
    b: COOMatrix,
    row_offset: int = 0,
    col_offset: int = 0,
    mirror: COOMatrix | None = None,
) -> COOMatrix:
    """``B ∪ Bᵀ`` for :class:`~repro.core.semirings.CommonKmers` values,
    with seed orientation corrected on the transposed copies.

    Where both directions produced an entry, the one with the larger shared
    count wins; on ties the *forward* direction — the one whose substitutes
    were expanded from the smaller global sequence id — wins, making the
    result canonical regardless of evaluation order.  ``row_offset`` /
    ``col_offset`` translate block-local coordinates to global ids for the
    distributed pipeline (the tie-break needs global ids).

    Off-diagonal-block contract
    ---------------------------
    The mirrored entries of an output block at global position
    ``(row_offset, col_offset)`` live in the partner block at
    ``(col_offset, row_offset)``; ``mirror`` must be that partner block
    *transposed into this block's index space* (exactly what
    :meth:`~repro.sparse.distmat.DistSparseMatrix.transpose` delivers).  Its
    entry at local ``(r, c)`` is the un-flipped directed value of global
    coordinate ``(col_offset + c, row_offset + r)``, so its AS side is
    ``col_offset + c`` and its seeds are flipped here.  When ``mirror`` is
    omitted it defaults to ``b.transpose()``, which is only the partner
    block when ``b`` *is* its own mirror — a square diagonal block
    (``row_offset == col_offset``); unequal offsets without an explicit
    mirror raise :class:`ValueError` instead of silently merging entries
    from the wrong coordinate space.

    Values are struct-of-arrays records
    (:data:`~repro.core.semirings.CK_DTYPE`) on the pipeline's path and
    ``CommonKmers`` objects in the oracle
    (:func:`find_candidate_pairs_semiring`), the same in ``b`` and
    ``mirror``; the winner selection is one vectorized
    :func:`~repro.sparse.coo.group_coords` either way, and the record path
    touches no per-element Python at all.
    """
    if mirror is None:
        if row_offset != col_offset or b.nrows != b.ncols:
            raise ValueError(
                "off-diagonal block symmetrization needs the mirrored "
                "partner block: pass mirror= (see the off-diagonal-block "
                "contract in the docstring)"
            )
        mirror = b.transpose()
    if mirror.shape != b.shape:
        raise ValueError(
            f"mirror shape {mirror.shape} does not match block {b.shape}"
        )
    rows = np.concatenate((b.rows, mirror.rows))
    cols = np.concatenate((b.cols, mirror.cols))
    # as_side = global id of the sequence whose substitutes were expanded
    # (the AS-side row of the original directed entry)
    side = np.concatenate(
        (b.rows + row_offset, mirror.cols + col_offset)
    )
    # forward entries first: the stable sort makes them win full ties
    flag = np.concatenate(
        (np.zeros(b.nnz, dtype=np.int64), np.ones(mirror.nnz, dtype=np.int64))
    )

    struct_path = is_ck_records(b.vals)
    if struct_path:
        vals = np.concatenate((b.vals, ck_flip_records(mirror.vals)))
        counts = vals["count"]
    else:
        # mirrored values are flipped lazily — only the group winners pay
        # the per-element flip; counts are read out as one column
        vals = np.concatenate((b.vals, mirror.vals))
        counts = np.fromiter(
            (v.count for v in vals), dtype=np.int64, count=len(vals)
        )
    if len(rows) == 0:
        return COOMatrix(b.nrows, b.ncols, rows, cols, vals)

    # per coordinate: count descending, AS side ascending, forward first —
    # the first entry of every (row, col) group is the canonical winner
    order, winners, _, out_rows, out_cols = group_coords(
        rows, cols, tiebreak=(flag, side, -counts)
    )
    out_vals = np.take(vals, order[winners])
    if not struct_path:
        flagw = flag[order[winners]]
        for t in np.flatnonzero(flagw):
            out_vals[t] = out_vals[t].flip()
    return COOMatrix(b.nrows, b.ncols, out_rows, out_cols, out_vals)


# ---------------------------------------------------------------------------
# candidate pairs
# ---------------------------------------------------------------------------


def _pairs_from_common_kmers(
    n: int, ri: np.ndarray, rj: np.ndarray, vals: np.ndarray
) -> CandidatePairs:
    """Unpack ``B`` entries ``(ri, rj, vals)`` into :class:`CandidatePairs`;
    values may be :class:`CommonKmers` objects or CK struct records."""
    npairs = len(ri)
    counts = np.empty(npairs, dtype=np.int64)
    spos_i = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
    spos_j = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
    sdist = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
    if is_ck_records(vals):
        counts[:] = vals["count"]
        for s, f in enumerate(CK_SEED_FIELDS):
            packed = vals[f]
            has = packed != CK_SEED_NONE
            pi, pj, dd = unpack_seeds(packed[has])
            spos_i[has, s] = pi
            spos_j[has, s] = pj
            sdist[has, s] = dd
    else:
        for p, v in enumerate(vals):
            assert isinstance(v, CommonKmers)
            counts[p] = v.count
            for s, (pi, pj, dd) in enumerate(v.seeds[:MAX_SEEDS]):
                spos_i[p, s] = pi
                spos_j[p, s] = pj
                sdist[p, s] = dd
    return CandidatePairs(n, ri, rj, counts, spos_i, spos_j, sdist)


def pairs_from_block(
    n: int,
    block: COOMatrix,
    row_offset: int = 0,
    col_offset: int = 0,
    owns_diagonal: bool = False,
) -> CandidatePairs:
    """The candidate pairs one block of the symmetric ``n x n`` ``B`` is
    responsible for (Fig. 11) — the one ``B`` -> :class:`CandidatePairs`
    step; the whole matrix is the block at offsets 0.

    Block ``(pi, pj)`` local ``(r, c)`` mirrors block ``(pj, pi)`` local
    ``(c, r)``, so ``r < c`` in every block, plus ``r == c`` in the blocks
    above the grid diagonal (``owns_diagonal``), covers every off-diagonal
    pair exactly once.  The offsets translate to global ids, global
    self-pairs are dropped, and a pair a below-diagonal block holds as
    ``(hi, lo)`` becomes ``(lo, hi)`` by swapping its ids and its seed
    position columns.  Entry order is kept: the graph bytes depend on it.
    """
    gi = block.rows + row_offset
    gj = block.cols + col_offset
    keep = block.rows < block.cols
    if owns_diagonal:
        keep |= block.rows == block.cols
    keep &= gi != gj
    pairs = _pairs_from_common_kmers(n, gi[keep], gj[keep], block.vals[keep])
    swap = pairs.ri > pairs.rj
    pairs.ri[swap], pairs.rj[swap] = pairs.rj[swap], pairs.ri[swap]
    pairs.seed_pos_i[swap], pairs.seed_pos_j[swap] = (
        pairs.seed_pos_j[swap], pairs.seed_pos_i[swap]
    )
    return pairs


def find_candidate_pairs(
    store: SequenceStore,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CandidatePairs:
    """Overlap detection for a whole store: the pipeline's overlap stage
    (:func:`repro.core.distributed.block_pairs`) on one inline rank, whose
    single block is all of ``B``, sorted by ``(i, j)``.

    With ``config.substitutes == 0`` this is ``A Aᵀ``; otherwise
    ``(A S) Aᵀ`` followed by the symmetrization merge (the direction with
    the larger shared count wins, forward on ties), on the semirings of a
    full run.  ``s_triples`` allows reusing a precomputed ``S``; a
    distance outside the seed pack raises :class:`ValueError`.  Agrees
    exactly with :func:`find_candidate_pairs_semiring` (a tested
    invariant).
    """
    # deferred imports: core.distributed builds on this module
    from ..mpisim.backend import run_spmd
    from .distributed import store_pairs

    if s_triples is not None:
        check_seed_distances(s_triples[2])
    [pairs] = run_spmd(1, store_pairs, store, config, s_triples)
    return pairs.sort()


# alias kept for benchmarks/e2e/probes.py, which resolves this name at call
# time and is its only caller
find_candidate_pairs_struct = find_candidate_pairs


def find_candidate_pairs_semiring(
    store: SequenceStore,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CandidatePairs:
    """Reference overlap detection through the object PASTIS semirings and
    the scalar hash SpGEMM — slow, but a direct transcription of the
    paper's matrix formulation, sharing no multiplier, communicator or
    block layout with the pipeline.  No driver reaches it; the tests
    validate :func:`find_candidate_pairs` and the full runs against it.
    ``s_triples`` allows reusing a precomputed ``S``."""
    rows, cols, pos = build_a_triples(store, config.k)
    if config.substitutes and s_triples is None:
        present = np.unique(cols)
        s_triples = build_s_triples(
            present, config.k, config.substitutes, config.scoring,
            restrict_to=present,
        )
    s_rows, s_cols, s_dist = s_triples or (cols[:0],) * 3
    # k-mer ids relabelled to dense indices over every id in play: CSR row
    # pointers over the whole 24^k space would not fit
    vocab = np.unique(np.concatenate((cols, s_rows, s_cols)))
    nk = max(len(vocab), 1)

    def csr(nrows, ncols, r, c, v) -> CSRMatrix:
        return CSRMatrix.from_coo(COOMatrix(nrows, ncols, r, c, v))

    a = csr(len(store), nk, rows, np.searchsorted(vocab, cols), pos)
    at = a.transpose()
    if config.substitutes == 0:
        b = spgemm_hash(a, at, exact_overlap_semiring())
    else:
        s = csr(nk, nk, np.searchsorted(vocab, s_rows),
                np.searchsorted(vocab, s_cols),
                np.asarray(s_dist, dtype=np.int64))
        a_s = CSRMatrix.from_coo(spgemm_hash(a, s, substitute_as_semiring()))
        b = symmetrize_candidates(
            spgemm_hash(a_s, at, substitute_overlap_semiring())
        )
    return pairs_from_block(len(store), b).sort()
