"""Block-wise symmetrization: the off-diagonal offset contract.

``symmetrize_candidates`` historically computed the AS-side global id of
mirrored entries from the *column* offset, which is only correct for square
diagonal blocks (``row_offset == col_offset``) — the old NOTE admitted as
much.  These tests pin the repaired contract for both formulations — the
pipeline's count merge (``repro.core.overlap``: merged counts plus the
winning directed entry) and the oracle's object
merge (``semiring_oracle``, which refuses unequal offsets without a
mirror): an off-diagonal block is merged against its mirrored partner
block, and the block-wise results must tile exactly into the global
single-matrix symmetrization.
"""

from __future__ import annotations

import numpy as np
import pytest

import semiring_oracle
from repro.core import overlap
from repro.mpisim.grid import block_ranges
from repro.sparse.coo import COOMatrix
from semiring_oracle import CommonKmers

#: the two formulations under test, by parameter id
_FORMS = ("object", "counts")


def _random_directed_b(n: int, seed: int, nnz: int) -> COOMatrix:
    """A directed candidate matrix: off-diagonal CommonKmers entries, some
    coordinates present in both orientations (including count ties)."""
    rng = np.random.default_rng(seed)
    coords: set[tuple[int, int]] = set()
    while len(coords) < nnz:
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            coords.add((i, j))
    # force both orientations (and some equal counts) into the mix
    both = list(coords)[: nnz // 3]
    coords.update((j, i) for i, j in both)
    rows, cols, vals = [], [], []
    for i, j in sorted(coords):
        nseeds = int(rng.integers(1, 3))
        seeds = tuple(
            sorted(
                (
                    (int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                     int(rng.integers(0, 3)))
                    for _ in range(nseeds)
                ),
                key=lambda s: (s[2], s[0], s[1]),
            )
        )
        rows.append(i)
        cols.append(j)
        vals.append(CommonKmers(int(rng.integers(1, 4)), seeds))
    v = np.empty(len(vals), dtype=object)
    for t, val in enumerate(vals):
        v[t] = val
    return COOMatrix(n, n, rows, cols, v)


def _block(b: COOMatrix, rr, cr) -> COOMatrix:
    keep = ((b.rows >= rr[0]) & (b.rows < rr[1])
            & (b.cols >= cr[0]) & (b.cols < cr[1]))
    return COOMatrix(rr[1] - rr[0], cr[1] - cr[0], b.rows[keep] - rr[0],
                     b.cols[keep] - cr[0], b.vals[keep])


def _counts(b: COOMatrix) -> COOMatrix:
    return COOMatrix(b.nrows, b.ncols, b.rows, b.cols,
                     np.array([v.count for v in b.vals], dtype=np.int64))


def _merge(form: str, b: COOMatrix, row_offset: int = 0,
           col_offset: int = 0, mirror: COOMatrix | None = None) -> dict:
    """``{(global row, global col): value}`` of one block's merge.  A
    value is the :class:`CommonKmers` of the object merge, or ``(count,
    winning directed entry)`` of the count merge, the entry named by its
    global ``(AS side, other side)`` coordinate."""
    if form == "object":
        out = semiring_oracle.symmetrize_candidates(
            b, row_offset, col_offset, mirror
        )
        return {(int(r) + row_offset, int(c) + col_offset): v
                for r, c, v in zip(out.rows, out.cols, out.vals)}
    b = _counts(b)
    m = b.transpose() if mirror is None else _counts(mirror)
    merged, winner = overlap.symmetrize_candidates(
        b, row_offset, col_offset, mirror=m, return_winner=True
    )
    directed = list(zip(b.rows + row_offset, b.cols + col_offset)) + list(
        zip(m.cols + col_offset, m.rows + row_offset)
    )
    return {
        (int(r) + row_offset, int(c) + col_offset):
            (int(v), tuple(int(x) for x in directed[w]))
        for r, c, v, w in zip(merged.rows, merged.cols, merged.vals, winner)
    }


class TestOffsetContract:
    """A merge whose mirror cannot be right is refused: the object
    oracle's default mirror only on a square diagonal block (the count
    merge takes no default), and a mirror of the wrong shape by both
    formulations."""

    def test_unequal_offsets_without_mirror_raise(self):
        b = _random_directed_b(6, 0, 8)
        with pytest.raises(ValueError, match="mirror"):
            _merge("object", b, row_offset=0, col_offset=6)

    def test_rectangular_block_without_mirror_raises(self):
        blk = _block(_random_directed_b(6, 1, 8), (0, 2), (0, 6))
        with pytest.raises(ValueError):
            _merge("object", blk, 0, 0)

    def test_mirror_shape_mismatch_raises(self):
        b = _random_directed_b(6, 2, 8)
        for form in _FORMS:
            with pytest.raises(ValueError, match="shape"):
                _merge(form, b, 0, 0, mirror=_block(b, (0, 3), (0, 6)))


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("seed", range(3))
class TestBlocksTileTheGlobalMerge:
    """Regression for the diagonal-only offset bug: every block of the
    grid — including off-diagonal blocks with unequal row/col offsets and
    uneven block sizes — must reproduce its window of the global merge."""

    def test_blockwise_equals_global(self, form, q, seed):
        n = 11  # does not divide evenly by q: offsets differ per block
        b = _random_directed_b(n, seed, 14)
        ref = _merge(form, b)
        ranges = block_ranges(n, q)
        covered = 0
        for pi in range(q):
            for pj in range(q):
                rr, cr = ranges[pi], ranges[pj]
                # the mirrored partner block, transposed into this block's
                # index space — what the exchange across the grid
                # diagonal delivers
                got = _merge(form, _block(b, rr, cr), rr[0], cr[0],
                             mirror=_block(b, cr, rr).transpose())
                for coord, v in got.items():
                    assert ref[coord] == v
                    covered += 1
        assert covered == len(ref)


class TestForwardWinsTieBreak:
    def _tie_matrix(self) -> COOMatrix:
        # (1, 3) and (3, 1) carry equal counts but different seeds: the
        # forward direction (AS side = smaller global id 1) must win, and
        # the (3, 1) output cell must hold the winner's flipped seeds
        v = np.empty(2, dtype=object)
        v[0] = CommonKmers(2, ((4, 9, 0), (6, 2, 1)))
        v[1] = CommonKmers(2, ((8, 3, 0), (1, 7, 1)))
        return COOMatrix(5, 5, [1, 3], [3, 1], v)

    @pytest.mark.parametrize("form", _FORMS)
    def test_forward_direction_wins_count_ties(self, form):
        out = _merge(form, self._tie_matrix())
        if form == "object":
            assert out[(1, 3)] == CommonKmers(2, ((4, 9, 0), (6, 2, 1)))
            assert out[(3, 1)] == CommonKmers(2, ((9, 4, 0), (2, 6, 1)))
        else:
            assert out == {(1, 3): (2, (1, 3)), (3, 1): (2, (1, 3))}

    @pytest.mark.parametrize("form", _FORMS)
    def test_larger_count_beats_forward(self, form):
        v = np.empty(2, dtype=object)
        v[0] = CommonKmers(1, ((4, 9, 0),))
        v[1] = CommonKmers(3, ((8, 3, 0),))
        out = _merge(form, COOMatrix(5, 5, [1, 3], [3, 1], v))
        # the backward direction (3 -> 1) has the larger count: its value
        # lands unflipped at (3, 1) and flipped at (1, 3)
        if form == "object":
            assert out[(3, 1)] == CommonKmers(3, ((8, 3, 0),))
            assert out[(1, 3)] == CommonKmers(3, ((3, 8, 0),))
        else:
            assert out == {(1, 3): (3, (3, 1)), (3, 1): (3, (3, 1))}
