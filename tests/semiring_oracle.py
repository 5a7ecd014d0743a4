"""The paper's literal object formulation of the overlap stage — the
tests' oracle.

``B = A Aᵀ`` or ``B = (A S) Aᵀ`` through the scalar
:func:`~repro.sparse.spgemm.spgemm_hash` on object values, the way
Sections IV-A and IV-C state it:

* ``AS[i, u]``  — :class:`SeedHit` ``(position, distance)``: where the
  closest k-mer of sequence ``i`` mapping to substitute ``u`` starts.  When
  several k-mers of the sequence share the substitute, the *closest* one
  (minimum distance) wins — the paper's AS semiring;
* ``B[i, j]``   — :class:`CommonKmers`: the number of shared (substitute)
  k-mers plus up to ``MAX_SEEDS`` seed pairs, each ``(pos_i, pos_j,
  distance)``, kept in ascending distance;

then the object symmetrization and the object ``B`` -> pairs step.  It
shares no multiplier, communicator, seed pack or block layout with the
pipeline, which carries counts through ``B`` and joins seeds after CK.
A library, not a test module: pytest never collects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.sequences import SequenceStore
from repro.core.config import PastisConfig
from repro.core.overlap import CandidatePairs, build_a_triples, build_s_triples
from repro.core.semirings import MAX_SEEDS
from repro.sparse.coo import COOMatrix, group_coords
from repro.sparse.csr import CSRMatrix
from repro.sparse.semiring import Semiring
from repro.sparse.spgemm import spgemm_hash

__all__ = [
    "SeedHit",
    "CommonKmers",
    "merge_common_kmers",
    "exact_overlap_semiring",
    "substitute_as_semiring",
    "substitute_overlap_semiring",
    "symmetrize_candidates",
    "pairs_from_block",
    "find_candidate_pairs_semiring",
]


@dataclass(frozen=True)
class SeedHit:
    """An ``AS`` value: seed position on the sequence plus the substitution
    distance of the k-mer that produced it."""

    position: int
    distance: int


@dataclass(frozen=True)
class CommonKmers:
    """A ``B`` value: shared-k-mer count and up to ``MAX_SEEDS`` seed pairs
    ``(pos_row, pos_col, distance)``.

    Seeds are kept in the canonical order ``(distance, pos_row, pos_col)``
    ascending; because the order is total and consistent, incremental
    merging retains exactly the global top-``MAX_SEEDS`` — which makes the
    pipeline output independent of accumulation order (and hence of the
    process count, the paper's reproducibility claim)."""

    count: int
    seeds: tuple[tuple[int, int, int], ...]

    def merge(self, other: "CommonKmers") -> "CommonKmers":
        seeds = sorted(
            self.seeds + other.seeds, key=lambda s: (s[2], s[0], s[1])
        )
        return CommonKmers(
            count=self.count + other.count,
            seeds=tuple(seeds[:MAX_SEEDS]),
        )

    def flip(self) -> "CommonKmers":
        """Orientation for the transposed coordinate: swap the row/column
        roles of every seed (needed whenever ``Bᵀ`` values are reused)."""
        seeds = sorted(
            ((pj, pi, d) for (pi, pj, d) in self.seeds),
            key=lambda s: (s[2], s[0], s[1]),
        )
        return CommonKmers(count=self.count, seeds=tuple(seeds))


def merge_common_kmers(a: CommonKmers, b: CommonKmers) -> CommonKmers:
    """Semiring add for ``B``."""
    return a.merge(b)


def exact_overlap_semiring() -> Semiring:
    """``B = A Aᵀ`` (Fig. 4): multiply pairs the two seed positions of the
    shared k-mer (distance 0); add accumulates count and best seeds."""

    def mul(pos_r, pos_c) -> CommonKmers:
        return CommonKmers(1, ((int(pos_r), int(pos_c), 0),))

    return Semiring("pastis_exact_overlap", merge_common_kmers, mul)


def substitute_as_semiring() -> Semiring:
    """``AS`` (Section IV-C): multiply attaches the substitution distance to
    the seed position; add keeps the closest k-mer when a substitute is
    reachable from several k-mers of the same sequence."""

    def mul(pos, dist) -> SeedHit:
        return SeedHit(int(pos), int(dist))

    def add(x: SeedHit, y: SeedHit) -> SeedHit:
        if (y.distance, y.position) < (x.distance, x.position):
            return y
        return x

    return Semiring("pastis_as", add, mul)


def substitute_overlap_semiring() -> Semiring:
    """``(A S) Aᵀ``: multiply combines a :class:`SeedHit` from ``AS`` with
    the exact position from ``Aᵀ``; add is the same count/seed merge."""

    def mul(hit: SeedHit, pos_c) -> CommonKmers:
        return CommonKmers(1, ((hit.position, int(pos_c), hit.distance),))

    return Semiring("pastis_substitute_overlap", merge_common_kmers, mul)


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

    Values are :class:`CommonKmers` objects in ``b`` and ``mirror``; the
    winner selection is one vectorized
    :func:`~repro.sparse.coo.group_coords`.
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

    # mirrored values are flipped lazily — only the group winners pay the
    # per-element flip; counts are read out as one column
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
    flagw = flag[order[winners]]
    for t in np.flatnonzero(flagw):
        out_vals[t] = out_vals[t].flip()
    return COOMatrix(b.nrows, b.ncols, out_rows, out_cols, out_vals)


def _pairs_from_common_kmers(
    n: int, ri: np.ndarray, rj: np.ndarray, vals: np.ndarray
) -> CandidatePairs:
    """Unpack ``B`` entries ``(ri, rj, vals)`` of :class:`CommonKmers`
    objects into :class:`CandidatePairs`."""
    npairs = len(ri)
    counts = np.empty(npairs, dtype=np.int64)
    spos_i = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
    spos_j = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
    sdist = np.full((npairs, MAX_SEEDS), -1, dtype=np.int64)
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


def find_candidate_pairs_semiring(
    store: SequenceStore,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CandidatePairs:
    """Reference overlap detection through the object PASTIS semirings and
    the scalar hash SpGEMM — slow, but a direct transcription of the
    paper's matrix formulation, sharing no multiplier, communicator or
    block layout with the pipeline.  The tests validate
    :func:`~repro.core.overlap.find_candidate_pairs` and the full runs
    against it.  Returns every candidate pair, before CK; ``s_triples``
    allows reusing a precomputed ``S``."""
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
