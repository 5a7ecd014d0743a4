"""Batched inter-pair alignment engine (PASTIS's SeqAn batching, Section V).

PASTIS hands whole batches of pairwise alignments to SeqAn, whose
inter-sequence vectorization advances the same DP step in many alignments at
once with AVX2.  This module is the NumPy analogue: a batch of
:class:`~repro.align.batch.AlignmentTask`s is packed into padded lane
arrays and every DP row is advanced in *all live lanes simultaneously* —
one ``np.maximum``/``accumulate`` sweep replaces one Python-level row (or,
in the x-drop reference, one Python-level corridor of dict cells) per pair.

Two wavefronts are implemented:

* :func:`sw_batch` — the full Smith-Waterman/Gotoh recurrence of
  :mod:`repro.align.smith_waterman`, lanes retiring as their row count is
  exhausted.  Substitution scores come from a per-chunk query profile
  (one contiguous row per lane and DP row), and ``b`` is padded with a
  residue code that scores 0, so no padded cell can outscore a valid one
  and no validity mask is needed.  With ``traceback`` the per-lane ``H``
  matrices are retained and walked by the *same* scalar traceback as the
  reference, so results are byte-identical; without it (the NS fast path)
  nothing is retained beyond a running maximum.  Its rows span the whole
  of ``b``, so lanes are chunked by the bytes of profile plus state
  (:func:`_sw_chunks`).
* :func:`xdrop_extend_batch` — the gapped x-drop extension of
  :mod:`repro.align.xdrop` with the co-propagated ``(matches, length)``
  stats, or score-only (``stats=False``: score and extents, ~0.6x the
  cost).  Lanes retire as soon as their corridor dies (every cell of a row
  pruned).  Horizontal-gap chains are resolved exactly with a last-argmax
  mark scan inside the previous row's window, and in closed form right of
  it, where only a decaying gap chain can live; the pruning threshold uses
  the same running best as the reference's row-major scan (see the proof
  sketch in ``_xdrop_chunk``).  A row touches only the lanes' corridor
  windows, not the width of ``b``, so lanes are chunked by count: runs of
  :data:`_XDROP_LANES` lanes in ``(len(b), len(a))`` order, few enough
  that one row's ~20 state arrays stay in a core's L2 cache.

:func:`align_batch_batched` runs every XD extension score-only without
``traceback``.  With it, it extends each pair's first seed with
statistics and, in a batch of at least :data:`_XDROP_LANES` second-seed
extensions, its second seed score-only: that seed wins only on a strictly
higher score and is then extended again with statistics, unless its
extents already miss ``min_coverage`` (the pair is then ``None``).

Both produce results *byte-identical* to the per-pair Python reference
(``engine="python"``) — a tested invariant — whatever the chunk
composition.  Each chunk picks its integer widths from its own lengths
(:func:`_lane_dtype`): lane scores are int32 unless a score plus ``column
* gap_extend`` could reach ``2**31`` (then int64), and Smith-Waterman lanes
are int16 while that sum stays below ``2**15``; the x-drop path
statistics pack into int32 unless ``(min length + 1)**2`` could (then
int64).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bio.scoring import BLOSUM62, ScoringMatrix
from .smith_waterman import _traceback_stats
from .stats import AlignmentResult
from .xdrop import ExtensionResult, assemble_seed_extension

__all__ = ["GAP_LIMIT", "align_batch_batched", "sw_batch",
           "xdrop_extend_batch"]

# Smith-Waterman chunk budgets, in bytes of query profile plus DP state per
# chunk: the bytes of the H and F state of an int32 chunk at the old cell
# budgets (2**21 cells score-only, 2**24 retained H cells with traceback).
# A lane over budget on its own still runs, alone
_ROW_BUDGET = 1 << 24
_SW_KEEP_BUDGET = 1 << 26
#: lanes per x-drop chunk: one wavefront row's ~20 state arrays over this
#: many corridor windows (~60 columns each) stay resident in a 2 MiB L2;
#: measured against 128, 192, 320, 384, 512 and unchunked batches
_XDROP_LANES = 256
#: a lane value below this fits int32; a chunk whose values (a score plus
#: ``column * gap_extend``, a packed path statistic) can reach it is int64
_I32 = 2**31
#: a Smith-Waterman lane value of magnitude below this fits int16
_I16 = 2**15


def _lane_dtype(score_max, length, width, gap_open, gap_extend,
                score_min=None):
    """The lane dtype of a chunk: int32, or int64 when a score over
    ``length`` aligned pairs (``score_max`` each) plus ``width * gap_extend
    + gap_open`` can reach ``2**31``.  Given the matrix minimum
    ``score_min``, an int32 chunk is int16 instead when that sum stays
    below ``2**15`` and ``score_min`` is at least ``-2**15``.

    Only the Smith-Waterman wavefront passes ``score_min``.  With ``top =
    max(score_max, 0) * length``, ``length = min(nmax, mmax)`` and ``width
    = mmax + 1``, every value its row body forms lies in ``[min(score_min,
    -(width * gap_extend + gap_open)), top + (width - 1) * gap_extend]``:

    * ``H`` is in ``[0, top]``.  A valid cell holds the score of a local
      alignment: at most ``score_max`` per diagonal step and at most
      ``min(n, m)`` steps.  A padded cell is at most a valid cell of its
      lane, or 0 (see :func:`_sw_chunk`).
    * the diagonal candidate ``H + s`` is such a score too (or at most its
      ``H``, on a pad column or in the discarded column 0), and at least
      ``score_min``, from ``H = 0``.
    * ``F`` starts at the sentinel ``-gap_open`` and takes ``max(F -
      gap_extend, H - gap_open - gap_extend)`` with ``H >= 0`` each row,
      so it stays in ``[-(gap_open + 2 * gap_extend), top]``.
    * the horizontal scan's ``H0 + column * gap_extend`` is in ``[0, top +
      (width - 1) * gap_extend]``, and its running maximum less ``gap_open
      + (column + 1) * gap_extend`` at least ``-(gap_open + width *
      gap_extend)``.
    * the profile holds matrix entries (``score_max <= top``) and the pad
      score 0.

    ``_traceback_stats`` converts every value it reads to a Python ``int``.
    The x-drop wavefront keeps a ``-2**28`` dead sentinel, so it never
    asks for int16.
    """
    hi = max(score_max, 0) * length + width * gap_extend + gap_open
    if hi >= _I32:
        return np.int64
    if score_min is not None and hi < _I16 and score_min >= -_I16:
        return np.int16
    return np.int32


# spmd: hot-loop-ok (O(lanes) chunk planning, not per-cell work)
def _sw_chunks(order, ns, ms, scoring, gap_open, gap_extend, traceback):
    """Split ``order`` (lane indices, ascending ``(n, m)``) into
    Smith-Waterman chunks whose query profile plus DP state stays within
    the byte budget.  A lane costs ``mmax + 1`` columns of ``nres`` profile
    rows plus its state rows (``nmax + 7`` with traceback: the retained
    ``H`` matrix and six row buffers; else 9), each in the chunk's lane
    dtype.  The x-drop wavefront chunks by lane count instead: its rows
    cover the corridor windows only."""
    mat = scoring.matrix
    smax, smin, nres = int(mat.max()), int(mat.min()), mat.shape[0]
    budget = _SW_KEEP_BUDGET if traceback else _ROW_BUDGET
    chunks: list[list[int]] = []
    cur: list[int] = []
    nmax = wmax = 0
    for idx in order:
        nn, nw = max(nmax, ns[idx]), max(wmax, ms[idx] + 1)
        dt = _lane_dtype(smax, min(nn, nw - 1), nw, gap_open, gap_extend,
                         smin)
        rows = nres + (nn + 7 if traceback else 9)
        if cur and (len(cur) + 1) * nw * rows * dt().itemsize > budget:
            chunks.append(cur)
            cur, nn, nw = [], ns[idx], ms[idx] + 1
        cur.append(idx)
        nmax, wmax = nn, nw
    if cur:
        chunks.append(cur)
    return chunks


# ---------------------------------------------------------------------------
# batched Smith-Waterman
# ---------------------------------------------------------------------------


# spmd: hot-loop-ok (the wavefront design: one Python iteration per DP
# row with every live lane advanced vectorized, plus O(lanes) padding
# and emission loops)
def _sw_chunk(pairs, idxs, scoring, gap_open, gap_extend, traceback, out):
    """One padded-lane chunk of the batched Gotoh DP.

    The recurrence is ``smith_waterman._dp_matrix``'s (the same prefix-max
    horizontal fix-up) with a lane axis prepended, in the lane dtype of
    :func:`_lane_dtype`, where every value is exact.  Within each lane's
    valid ``(n+1) x (m+1)`` region the produced ``H`` therefore equals the
    reference's: no padded cell feeds a valid one (padding lies right of
    the valid region, lanes retire after their last row, and the DP only
    reads left/up/diagonal neighbours).

    Substitution scores come from a query profile built once per chunk:
    profile row ``r * L + t`` holds residue ``r`` scored against every
    column of lane ``t``'s ``b``, so a DP row gathers one contiguous
    profile row per lane.  ``b`` is padded with a spare residue code that
    scores 0 against everything.  A padded cell's diagonal step then adds
    at most 0 and its gaps subtract penalties, so by induction over the
    row-major order no padded cell exceeds a valid cell of its lane, or 0:
    the running maximum over whole rows is the lane's best valid score,
    with no mask.

    Each row is computed on the flat ``(lanes x W)`` arrays: the
    one-column shifts (``H`` up-left, the horizontal gap's source) are flat
    shifts by one, which wrap the previous lane's last column into column
    0; column 0 is ``H = 0`` and is reset.  Lanes are ordered by
    descending row count, so every DP row operates on a contiguous prefix
    of the state -- lane retirement never copies.
    """
    idxs = sorted(idxs, key=lambda i: -len(pairs[i][0]))
    L = len(idxs)
    ns = np.array([len(pairs[i][0]) for i in idxs], dtype=np.int64)
    ms = np.array([len(pairs[i][1]) for i in idxs], dtype=np.int64)
    nmax = int(ns.max())
    W = int(ms.max()) + 1
    mat = scoring.matrix
    nres = mat.shape[0]
    dt = _lane_dtype(int(mat.max()), min(nmax, W - 1), W, gap_open,
                     gap_extend, int(mat.min()))
    # profile column c scores b[c - 1]; column 0 and the padding take the
    # pad code ``nres``
    a_pad = np.zeros((nmax, L), dtype=np.intp)
    b_pad = np.full((L, W), nres, dtype=np.intp)
    for t, i in enumerate(idxs):
        a_pad[: ns[t], t] = pairs[i][0]
        b_pad[t, 1 : ms[t] + 1] = pairs[i][1]
    ext = np.zeros((nres, nres + 1), dtype=dt)
    ext[:, :nres] = mat
    prof = ext[:, b_pad].reshape(nres * L, W)  # one gather
    del b_pad
    prow = a_pad * L + np.arange(L)  # profile row of (DP row - 1, lane)
    o = dt(gap_open)
    e = dt(gap_extend)
    oe = dt(gap_open + gap_extend)
    jidx = np.arange(W, dtype=dt) * e
    ocol = jidx + oe  # the horizontal gap into column c + 1 from c
    # opening from H[0] = 0 gives F[1] = -o - e, as from minus infinity
    F = np.full((L, W), -o, dtype=dt)
    S, H0, R, T = np.empty((4, L, W), dtype=dt)
    Z = np.zeros((L, W), dtype=dt)  # a 0 floor: a scalar one runs no SIMD
    if traceback:
        keep = np.zeros((nmax + 1, L, W), dtype=dt)
    else:
        # double-buffered rows and the elementwise running maximum
        H, Hn, top = np.zeros((3, L, W), dtype=dt)

    nneg = -ns
    for i in range(1, nmax + 1):
        cnt = int(np.searchsorted(nneg, -i, side="right"))
        if traceback:
            Hp, Hc = keep[i - 1, :cnt], keep[i, :cnt]
        else:
            Hp, Hc = H[:cnt], Hn[:cnt]
        Fc, s, h0, r, tt = F[:cnt], S[:cnt], H0[:cnt], R[:cnt], T[:cnt]
        # vertical: F = max(F - e, H above - o - e)
        np.subtract(Hp, oe, out=tt)
        Fc -= e
        np.maximum(Fc, tt, out=Fc)
        # diagonal: H up-left + profile; pre-gap H0 = max(diagonal, F, 0)
        np.take(prof, prow[i - 1, :cnt], axis=0, out=s, mode="clip")
        sf = s.reshape(-1)
        np.add(sf[1:], Hp.reshape(-1)[:-1], out=sf[1:])
        np.maximum(Fc, Z[:cnt], out=h0)
        np.maximum(h0, s, out=h0)
        h0[:, 0] = 0
        # horizontal: H(c) = max(H0(c), max_{k<c} (H0(k) + k e) - o - c e)
        np.add(h0, jidx, out=r)
        np.maximum.accumulate(r, axis=1, out=r)
        np.subtract(r, ocol, out=r)
        np.maximum(h0.reshape(-1)[1:], r.reshape(-1)[:-1],
                   out=Hc.reshape(-1)[1:])
        Hc[:, 0] = 0
        if not traceback:
            np.maximum(top[:cnt], Hc, out=top[:cnt])
            H, Hn = Hn, H

    if not traceback:
        best = top.max(axis=1)
    for t, idx in enumerate(idxs):
        a, b = pairs[idx]
        n, m = len(a), len(b)
        if not traceback:
            # score-only: explicit empty sentinel span (never filtered)
            out[idx] = AlignmentResult(
                int(best[t]), 0, 0, 0, 0, 0, 0, n, m, "sw"
            )
            continue
        Hl = keep[: n + 1, t, : m + 1]
        score = int(Hl.max())
        if score <= 0:
            out[idx] = AlignmentResult(0, 0, 0, 0, 0, 0, 0, n, m, "sw")
            continue
        end_i, end_j = np.unravel_index(int(np.argmax(Hl)), Hl.shape)
        a0, b0, matches, length = _traceback_stats(
            Hl, a, b, scoring, int(gap_open), int(gap_extend),
            int(end_i), int(end_j),
        )
        out[idx] = AlignmentResult(
            score=score,
            a_start=a0,
            a_end=int(end_i),
            b_start=b0,
            b_end=int(end_j),
            matches=matches,
            alignment_length=length,
            len_a=n,
            len_b=m,
            mode="sw",
        )


# spmd: hot-loop-ok (O(lanes)/O(chunks) driver loops around the
# vectorized chunk kernel)
def sw_batch(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
    traceback: bool = True,
) -> list[AlignmentResult]:
    """Smith-Waterman over a batch of encoded pairs, DP rows advanced in
    every lane at once; byte-identical to per-pair :func:`smith_waterman`
    (requires gap penalties of at most :data:`GAP_LIMIT`)."""
    _check_gaps(gap_open, gap_extend)
    out: list[AlignmentResult | None] = [None] * len(pairs)
    lanes = []
    for idx, (a, b) in enumerate(pairs):
        if len(a) == 0 or len(b) == 0:
            out[idx] = AlignmentResult(
                0, 0, 0, 0, 0, 0, 0, len(a), len(b), "sw"
            )
        else:
            lanes.append(idx)
    ns = {i: len(pairs[i][0]) for i in lanes}
    ms = {i: len(pairs[i][1]) for i in lanes}
    lanes.sort(key=lambda i: (ns[i], ms[i]))
    for chunk in _sw_chunks(lanes, ns, ms, scoring, gap_open, gap_extend,
                            traceback):
        _sw_chunk(pairs, chunk, scoring, gap_open, gap_extend, traceback,
                  out)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# batched gapped x-drop extension
# ---------------------------------------------------------------------------


_XNEG = -(2**28)  # "dead" for corridor state
#: Largest ``gap_open`` / ``gap_extend`` the wavefronts take (and
#: :class:`~repro.core.config.PastisConfig` accepts).  With it a dead cell
#: minus both penalties stays far above ``-2**31``.  The horizontal scans'
#: ``u`` -- a score plus ``column * gap_extend``, whose running maximum is
#: compared exactly -- grows with the row length instead, so each chunk
#: picks its lane dtype from its lengths: int32 while ``u`` stays below
#: ``2**31``, int64 beyond (see :func:`_lane_dtype`).
GAP_LIMIT = 2**12
#: an x-drop at least this wide prunes no score a real cell can reach, so
#: larger values are clamped to it and the threshold stays above ``_XNEG``
_XDROP_CAP = 2**27


def _check_gaps(gap_open: int, gap_extend: int) -> None:
    """Raise ``ValueError`` for a gap penalty above :data:`GAP_LIMIT`."""
    if max(gap_open, gap_extend) > GAP_LIMIT:
        name, value = (("gap_open", gap_open) if gap_open > GAP_LIMIT
                       else ("gap_extend", gap_extend))
        raise ValueError(
            f"{name} must be at most {GAP_LIMIT} for the batched "
            f"alignment kernels, got {value}"
        )


def _select(dst, src, mask):
    """``dst[mask] = src[mask]`` in place, as arithmetic (exact under
    wrap-around): several times cheaper than a masked ``np.copyto``."""
    d = src - dst
    d *= mask
    dst += d


# spmd: hot-loop-ok (the wavefront design: one Python iteration per
# antidiagonal row with every live lane advanced vectorized, plus
# O(lanes) padding and emission loops)
def _xdrop_chunk(pairs, idxs, xdrop, scoring, gap_open, gap_extend, out,
                 stats=True):
    """One lane chunk of the batched x-drop wavefront.  With ``stats``
    false it skips every path-statistics operation below, and each lane's
    ``matches`` and ``length`` are 0.

    Exactness relative to the reference's row-major dict scan rests on
    three facts about linear-affine gaps (``open >= 1``):

    * a horizontal gap never profitably restarts from a cell whose score is
      itself horizontal-gap-derived, so ``E(c)`` is exactly the prefix
      maximum of ``u(c0) - open - c*extend`` over ``u = H0 + c*extend``,
      where ``H0 = max(diagonal, vertical)`` is the pre-gap score, and the
      reference's ``eh >= ee`` tie rule is exactly "last argmax" of that
      prefix.  The last argmax is the latest *mark* at or before ``c``,
      a mark being a column where ``u`` equals its running maximum: one
      running maximum over the marks' flat positions (every row's column
      0 is a mark, so it never crosses a row).  Such a source is never
      itself gap-won, and no gap-won cell is ever the first maximum of
      its row;
    * any chain contribution that crosses a pruned cell sits strictly below
      the (monotone) pruning threshold at its destination, so computing the
      prefix over *all* window cells -- dead ones included -- can change
      neither the liveness, score, nor winning branch of a surviving cell;
    * right of the previous row's last column nothing feeds a cell but the
      gap chain ``R - open - c*extend``, with ``R`` the row's maximum of
      ``u``.  Those tail cells never raise the running best (each lies
      below a cell to its left), so their threshold is the fixed
      ``max(best, row best) - xdrop`` and each lane's live tail length is
      one integer division; their statistics are those of the last
      argmax.

    The running-best threshold of the reference is recovered per row from
    an inclusive prefix maximum of the freshly computed scores (pruned
    cells can never raise it, and including a cell's own score cannot
    prune it since ``xdrop >= 0``).  Path statistics travel as ``(matches,
    diagonal steps)`` packed as ``matches * S + steps``; neither exceeds
    ``min(n, m)`` on a live cell, so with ``S = min(nmax, mmax) + 1`` the
    pack is int32 whenever ``S * S`` is (sequences shorter than ~46 k
    residues) and int64 otherwise.  Gap steps leave the statistics
    unchanged, so a gap-won cell simply copies its source's; the
    alignment length is recovered at the end as ``i + j - steps``.

    Like the reference, the wavefront only visits the live corridor: state
    is kept for the union of the lanes' live column windows, the next row
    covers it plus one diagonal step, the closed-form tail appends the
    live chain cells, and lanes whose corridor died are compacted away.
    The vertical state ``F`` covers only the columns a vertical gap can
    reach (it is dead in the diagonal-step column and in the tail).
    Lanes are ordered by descending row count so row retirement is a pure
    prefix slice.
    """
    idxs = sorted(idxs, key=lambda i: -len(pairs[i][0]))
    L = len(idxs)
    ns = np.array([len(pairs[i][0]) for i in idxs], dtype=np.int64)
    ms = np.array([len(pairs[i][1]) for i in idxs], dtype=np.int64)
    nmax, mmax = int(ns.max()), int(ms.max())
    # residue codes in the encoded (int8) dtype; b keeps one spare column
    # for the diagonal step past the widest window
    a_pad = np.zeros((L, nmax), dtype=np.int8)
    b_pad = np.zeros((L, mmax + 1), dtype=np.int8)
    for t, i in enumerate(idxs):
        a_pad[t, : ns[t]] = pairs[i][0]
        b_pad[t, : ms[t]] = pairs[i][1]
    nres = scoring.matrix.shape[1]
    csub = scoring.matrix.ravel()  # int32, indexed by a * nres + b
    S = min(nmax, mmax) + 1
    sdt = np.int32 if S * S < _I32 else np.int64
    match = sdt(S)  # a diagonal step on identical residues: one match
    o = int(gap_open)
    e = int(gap_extend)
    dt = _lane_dtype(int(scoring.matrix.max()), min(nmax, mmax), mmax + 2,
                     o, e)
    xd = dt(min(int(xdrop), _XDROP_CAP))
    neg = dt(_XNEG)
    cols = np.arange(mmax + 2, dtype=dt)
    ecol = cols * dt(e)
    oecol = ecol + dt(o)

    best = np.zeros(L, dtype=dt)
    best_i = np.zeros(L, dtype=np.int64)
    best_j = np.zeros(L, dtype=np.int64)
    best_s = np.zeros(L, dtype=sdt)

    # row 0: the origin plus a horizontal-gap chain while it stays within
    # xdrop of the (still zero) best; no match, no diagonal step and no
    # vertical gap
    if o > xd:
        hi = 1
    else:
        hi = (min(mmax, (int(xd) - o) // e) if e else mmax) + 1
    row0 = -oecol[:hi]
    row0[0] = 0
    H = np.where(cols[:hi] <= ms[:, None], row0, neg)
    sH = np.zeros((L, hi), dtype=sdt)
    F = np.empty((L, 0), dtype=dt)
    sF = np.empty((L, 0), dtype=sdt)

    lo = 0
    ids = np.arange(L)  # chunk-local lane ids, descending-n order
    # flat window positions: int32 unless L * (mmax + 2) of them overflow it
    pdt = np.int32 if L * (mmax + 2) < _I32 else np.int64
    nneg, lms = -ns, ms  # (negated, ascending) row counts, b lengths
    lmin = int(ms.min())
    for i in range(1, nmax + 1):
        Lc, Wp = H.shape
        Wi = Wp + 1  # the previous window plus one diagonal step
        # diagonal: window column c >= 1 aligns a[i-1] with b[lo + c - 1]
        bw = b_pad[ids, lo : lo + Wp]
        av = a_pad[ids, i - 1]
        cell = bw + (av.astype(np.intp) * nres)[:, None]
        H0 = np.empty((Lc, Wi), dtype=dt)
        H0[:, 0] = neg
        # (the indices are in range; "wrap" only skips the bounds check)
        np.add(H, csub.take(cell, mode="wrap"), out=H0[:, 1:])
        # vertical slot: open from H above or extend F above (F is dead
        # right of its own columns); an opened gap carries the statistics
        # of H above, an extended one those of F above -- sH is not read
        # again, so it takes them in place
        wF = F.shape[1]
        Fn = H - dt(o + e)
        ff = F - dt(e)
        if stats:
            inc = (bw == av[:, None]) * match
            inc += 1
            H0s = np.empty((Lc, Wi), dtype=sdt)
            H0s[:, 0] = 0
            np.add(sH, inc, out=H0s[:, 1:])
            nF = sH
            _select(nF[:, :wF], sF, ff > Fn[:, :wF])
        np.maximum(Fn[:, :wF], ff, out=Fn[:, :wF])
        # pre-gap score H0 = max(diag, F); diagonal wins ties
        if stats:
            _select(H0s[:, :Wp], nF, Fn > H0[:, :Wp])
        np.maximum(H0[:, :Wp], Fn, out=H0[:, :Wp])
        # horizontal slot: E(c) = run(c-1) - open - c*extend, run the
        # prefix maximum of u
        u = H0 + ecol[:Wi]
        run = np.maximum.accumulate(u, axis=1)
        if stats:
            # A(c): flat position of the last argmax of u over [0, c]
            A = (u == run).reshape(-1) * np.arange(Lc * Wi, dtype=pdt)
            np.maximum.accumulate(A, out=A)
        Hn = H0.copy() if stats else H0  # H0 is read again for statistics
        np.maximum(Hn[:, 1:], run[:, :-1] - oecol[1:Wi], out=Hn[:, 1:])
        # kill the cells past b's end: only once the window passes some
        # lane's end, and only right of the earliest such end
        if lo + Wi - 1 > lmin:
            c0 = lmin - lo + 1
            Hn[:, c0:][cols[c0:Wi] > (lms - lo)[:, None]] = neg
        # running-best pruning threshold (row-major semantics)
        rb = np.maximum.accumulate(Hn, axis=1)
        bcur = best[ids]
        thr = np.maximum(rb, bcur[:, None])
        thr -= xd
        live = Hn >= thr
        # best-cell update: first column of a strict row improvement
        upd = np.flatnonzero(rb[:, -1] > bcur)
        if upd.size:
            jstar = Hn.argmax(axis=1)[upd]
            lu = ids[upd]
            best[lu] = rb[upd, -1]
            best_i[lu] = i
            best_j[lu] = lo + jstar
            if stats:
                best_s[lu] = H0s[upd, jstar]
        if stats:
            # statistics of the live cells a horizontal gap wins (Hn > H0):
            # the source's (flat indices; such a cell has c >= 1)
            k = np.flatnonzero((Hn > H0) & live)
            sflat = H0s.reshape(-1)
            sflat[k] = sflat[A[k - 1]]

        # retire lanes whose rows ran out (a suffix: ids sorted by -n) and
        # compact away lanes whose corridor died
        cnt = int(np.searchsorted(nneg, -i, side="left"))
        lv = live[:cnt]
        sel = np.flatnonzero(lv.any(axis=1))
        if sel.size == 0:
            break
        # closed-form tail: live chain cells right of column Wi - 1
        R = run[sel, -1].astype(np.int64) - o
        T = thr[sel, -1].astype(np.int64)
        room = lms[sel] - lo - Wi + 1
        if e:
            tlen = np.minimum((R - T) // e - (Wi - 1), room)
        else:
            tlen = np.where(R >= T, room, 0)
        tmax = int(tlen.max())
        live_cols = np.flatnonzero(lv.any(axis=0))
        alo = int(live_cols[0])
        ahi = int(live_cols[-1]) + 1
        pick = slice(None) if sel.size == Lc else sel
        H = np.where(live[pick, alo:ahi], Hn[pick, alo:ahi], neg)
        # a pruned cell's F stays below threshold
        F = Fn[pick, alo : min(ahi, Wp)]
        if stats:
            sH = H0s[pick, alo:ahi]
            sF = nF[pick, alo : min(ahi, Wp)]
        if tmax > 0:  # a live tail implies a live column Wi - 1
            tc = np.arange(tmax)
            tail = R[:, None] - (Wi + tc) * e
            H = np.concatenate(
                [H, np.where(tc < tlen[:, None], tail, _XNEG).astype(dt)],
                axis=1,
            )
            if stats:
                tstat = sflat[A[sel * Wi + Wi - 1]]
                sH = np.concatenate(
                    [sH, np.broadcast_to(tstat[:, None], (sel.size, tmax))],
                    axis=1,
                )
        if sel.size < Lc:
            ids, nneg, lms = ids[sel], nneg[sel], lms[sel]
            lmin = int(lms.min())
        lo += alo

    steps = best_s % S
    for t in range(L):
        out[idxs[t]] = ExtensionResult(
            score=int(best[t]),
            ext_a=int(best_i[t]),
            ext_b=int(best_j[t]),
            matches=int(best_s[t] // S) if stats else 0,
            length=int(best_i[t] + best_j[t] - steps[t]) if stats else 0,
        )


# spmd: hot-loop-ok (O(lanes)/O(chunks) driver loops around the
# vectorized chunk kernel)
def xdrop_extend_batch(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    xdrop: int,
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
    stats: bool = True,
) -> list[ExtensionResult]:
    """Gapped x-drop extensions over a batch of encoded pairs, one wavefront
    row advanced in every live lane at once; byte-identical to per-pair
    :func:`repro.align.xdrop.xdrop_extend` (requires ``gap_open >= 1``,
    ``xdrop >= 0`` and gap penalties of at most :data:`GAP_LIMIT`).  With
    ``stats`` false only ``score``, ``ext_a`` and ``ext_b`` are computed,
    and ``matches`` and ``length`` are 0."""
    if gap_open < 1:
        raise ValueError("batched x-drop requires gap_open >= 1")
    if xdrop < 0:
        raise ValueError("batched x-drop requires xdrop >= 0")
    _check_gaps(gap_open, gap_extend)
    out: list[ExtensionResult | None] = [None] * len(pairs)
    lanes = []
    for idx, (a, b) in enumerate(pairs):
        if len(a) == 0 or len(b) == 0:
            out[idx] = ExtensionResult(0, 0, 0, 0, 0)
        else:
            lanes.append(idx)
    ns = {i: len(pairs[i][0]) for i in lanes}
    ms = {i: len(pairs[i][1]) for i in lanes}
    lanes.sort(key=lambda i: (ms[i], ns[i]))
    for c in range(0, len(lanes), _XDROP_LANES):
        _xdrop_chunk(pairs, lanes[c : c + _XDROP_LANES], xdrop, scoring,
                     gap_open, gap_extend, out, stats)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# batch driver
# ---------------------------------------------------------------------------


# spmd: hot-loop-ok (O(tasks) seed-plan assembly loops; the DP cells
# all burn inside the batched chunk kernels)
def align_batch_batched(
    tasks,
    mode: str,
    k: int,
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
    xdrop: int = 49,
    traceback: bool = True,
    min_coverage: float | None = None,
) -> list[AlignmentResult | None]:
    """Align a batch of :class:`AlignmentTask`s on the batched wavefront
    engine, preserving task order; results are byte-identical to mapping
    :func:`repro.align.batch.align_pair` over the batch, ``None`` for a
    coverage reject included.  The second seeds run score-only (see the
    module docstring) only from :data:`_XDROP_LANES` extensions on: a
    score-only chunk pays its own per-row dispatch."""
    if mode == "sw":
        return _cut(sw_batch([(t.a, t.b) for t in tasks], scoring, gap_open,
                             gap_extend, traceback), min_coverage)
    if mode != "xd":
        raise ValueError(f"unknown alignment mode {mode!r}")
    for t in tasks:
        if not t.seeds:
            raise ValueError("XD mode requires at least one seed")
    if gap_open < 1:  # the wavefront's prefix-scan derivation needs it
        from .batch import align_pair

        return [
            align_pair(t, mode, k, scoring, gap_open, gap_extend, xdrop,
                       traceback, min_coverage)
            for t in tasks
        ]

    results: list[AlignmentResult | None] = [None] * len(tasks)
    # (task, seed in a, seed in b) of every pair's first and second seed
    first, second = [], []
    for ti, t in enumerate(tasks):
        n, m = len(t.a), len(t.b)
        if n < k or m < k:
            # no legal seed placement: skip with an explicit empty result
            results[ti] = AlignmentResult(0, 0, 0, 0, 0, 0, 0, n, m, "xd")
            continue
        for si, (sa, sb) in enumerate(t.seeds[:2]):
            sa = min(max(int(sa), 0), n - k)
            sb = min(max(int(sb), 0), m - k)
            (first, second)[si].append((ti, sa, sb))

    def extend(seeds, stats):
        """Each seed's result; only score and spans when score-only."""
        pairs = []
        for ti, sa, sb in seeds:
            a, b = tasks[ti].a, tasks[ti].b
            pairs += [(a[sa + k :], b[sb + k :]), (a[:sa][::-1], b[:sb][::-1])]
        exts = xdrop_extend_batch(pairs, xdrop, scoring, gap_open,
                                  gap_extend, stats)
        return [
            assemble_seed_extension(tasks[ti].a, tasks[ti].b, sa, sb, k,
                                    exts[2 * p + 1], exts[2 * p], scoring)
            for p, (ti, sa, sb) in enumerate(seeds)
        ]

    split = traceback and 2 * len(second) >= _XDROP_LANES
    if split:
        cands = extend(first, True) + extend(second, False)
    else:
        cands = extend(first + second, traceback)
    wins = []
    for plan, cand in zip(first + second, cands):
        prev = results[plan[0]]
        if prev is None or cand.score > prev.score:  # the first wins ties
            results[plan[0]] = cand
            if prev is not None:
                wins.append(plan)
    if split:
        # a winner below min_coverage on its score-only spans is cut below
        wins = [p for p in wins if min_coverage is None
                or results[p[0]].coverage_short >= min_coverage]
        for p, res in zip(wins, extend(wins, True)):
            results[p[0]] = res
    if not traceback:
        results = [AlignmentResult(r.score, 0, 0, 0, 0, 0, 0, r.len_a,
                                   r.len_b, "xd") for r in results]
    return _cut(results, min_coverage)


def _cut(results, min_coverage):
    """The results, each ``None`` that covers less than ``min_coverage``."""
    if min_coverage is None:
        return results
    return [r if r.coverage_short >= min_coverage else None for r in results]
