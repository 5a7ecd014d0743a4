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
  exhausted.  With ``traceback`` the per-lane ``H`` matrices are retained
  and walked by the *same* scalar traceback as the reference, so results
  are byte-identical; without it (the NS fast path) nothing is retained
  beyond a running per-lane maximum.
* :func:`xdrop_extend_batch` — the gapped x-drop extension of
  :mod:`repro.align.xdrop` with the co-propagated ``(matches, columns)``
  stats.  Lanes retire as soon as their corridor dies (every cell of a row
  pruned).  Horizontal-gap chains are resolved exactly with a prefix
  last-argmax scan; the pruning threshold uses the same running best as the
  reference's row-major scan (see the proof sketch in ``_xdrop_chunk``).

Both produce results *byte-identical* to the per-pair Python reference
(``engine="python"``) — a tested invariant, same contract as the overlap
stage's ``kernel`` knob.  Lanes are sorted by size and processed in chunks
so padding waste and peak memory stay bounded regardless of batch size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bio.scoring import BLOSUM62, ScoringMatrix
from .smith_waterman import _traceback_stats
from .stats import AlignmentResult
from .xdrop import ExtensionResult, assemble_seed_extension

__all__ = ["align_batch_batched", "sw_batch", "xdrop_extend_batch"]

_NEG = -(10**9)

# chunking budgets (cells = lanes x padded width); keep peak memory modest
# while leaving lanes wide enough to amortise per-row NumPy dispatch
_SW_KEEP_BUDGET = 1 << 24  # int32 H cells retained per traceback chunk
_ROW_BUDGET = 1 << 21      # lane-row cells processed per wavefront step


# spmd: hot-loop-ok (O(lanes) chunk planning, not per-cell work)
def _chunks_by_budget(order, widths, heights, budget, area=False):
    """Split ``order`` (lane indices) into chunks whose padded size stays
    under ``budget``; ``area=True`` budgets ``height x width`` (retained
    matrices), else just ``width`` (one row of state per lane)."""
    chunks: list[list[int]] = []
    cur: list[int] = []
    wmax = hmax = 0
    for idx in order:
        w = int(widths[idx]) + 1
        h = int(heights[idx]) + 1
        nw, nh = max(wmax, w), max(hmax, h)
        cost = (len(cur) + 1) * nw * (nh if area else 1)
        if cur and cost > budget:
            chunks.append(cur)
            cur, nw, nh = [], w, h
        cur.append(idx)
        wmax, hmax = nw, nh
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

    The recurrence mirrors ``smith_waterman._dp_matrix`` operation for
    operation (same dtypes, same prefix-max horizontal fix-up) with a lane
    axis prepended; within each lane's valid ``(n+1) x (m+1)`` region the
    produced ``H`` is therefore bit-equal to the reference's, because no
    padded cell can feed a valid one (padding lies right of / below the
    valid region and the DP only reads left/up/diagonal neighbours).

    Lanes are ordered by descending row count, so every DP row operates on
    a contiguous prefix slice of the state — lane retirement never copies.
    """
    idxs = sorted(idxs, key=lambda i: -len(pairs[i][0]))
    L = len(idxs)
    ns = np.array([len(pairs[i][0]) for i in idxs], dtype=np.int64)
    ms = np.array([len(pairs[i][1]) for i in idxs], dtype=np.int64)
    nmax = int(ns.max())
    W = int(ms.max()) + 1
    a_pad = np.zeros((L, nmax), dtype=np.intp)
    b_pad = np.zeros((L, W - 1), dtype=np.intp)
    for t, i in enumerate(idxs):
        a_pad[t, : ns[t]] = pairs[i][0]
        b_pad[t, : ms[t]] = pairs[i][1]
    cmat = scoring.matrix  # int32
    neg = np.int32(_NEG)
    o = np.int32(gap_open)
    e = np.int32(gap_extend)
    # int32 throughout: identical values to the reference's int64 horizontal
    # scan as long as score + j*extend stays in range, i.e. always
    jidx = (np.arange(W) * int(e)).astype(np.int32)
    ocol = jidx[1:] + o
    jcol = np.arange(W, dtype=np.int64)
    valid = jcol[None, :] <= ms[:, None]

    H = np.zeros((L, W), dtype=np.int32)
    F = np.full((L, W), neg, dtype=np.int32)
    if traceback:
        keep = np.zeros((L, nmax + 1, W), dtype=np.int32)
    best = np.zeros(L, dtype=np.int64)

    for i in range(1, nmax + 1):
        cnt = int(np.searchsorted(-ns, -i, side="right"))
        if cnt == 0:  # pragma: no cover - nmax guarantees cnt >= 1
            break
        Hp = H[:cnt]
        Fn = np.maximum(Hp - o, F[:cnt]) - e
        H0 = np.maximum(Fn, 0)
        sub = cmat[a_pad[:cnt, i - 1][:, None], b_pad[:cnt]]
        sub += Hp[:, :-1]
        np.maximum(H0[:, 1:], sub, out=H0[:, 1:])
        H0[:, 0] = 0
        src = H0 + jidx
        run = np.maximum.accumulate(src, axis=1)
        Hn = keep[:cnt, i] if traceback else np.empty_like(H0)
        Hn[:, 0] = 0
        np.subtract(run[:, :-1], ocol, out=run[:, :-1])
        np.maximum(H0[:, 1:], run[:, :-1], out=Hn[:, 1:])
        H[:cnt] = Hn
        F[:cnt] = Fn
        if not traceback:
            vmax = np.where(valid[:cnt], Hn, 0).max(axis=1)
            best[:cnt] = np.maximum(best[:cnt], vmax)

    for t, idx in enumerate(idxs):
        a, b = pairs[idx]
        n, m = len(a), len(b)
        if not traceback:
            # score-only: explicit empty sentinel span (never filtered)
            out[idx] = AlignmentResult(
                int(best[t]), 0, 0, 0, 0, 0, 0, n, m, "sw"
            )
            continue
        Hl = keep[t, : n + 1, : m + 1]
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
    every lane at once; byte-identical to per-pair :func:`smith_waterman`."""
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
    budget = _SW_KEEP_BUDGET if traceback else _ROW_BUDGET
    for chunk in _chunks_by_budget(lanes, ms, ns, budget, area=traceback):
        _sw_chunk(pairs, chunk, scoring, gap_open, gap_extend, traceback,
                  out)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# batched gapped x-drop extension
# ---------------------------------------------------------------------------


_XNEG = -(2**28)  # "dead" for int32 corridor state; sums never overflow
_PACK = 2**31     # (matches, columns) packed as matches * _PACK + columns


# spmd: hot-loop-ok (the wavefront design: one Python iteration per
# antidiagonal row with every live lane advanced vectorized, plus
# O(lanes) padding and emission loops)
def _xdrop_chunk(pairs, idxs, xdrop, scoring, gap_open, gap_extend, out):
    """One lane chunk of the batched x-drop wavefront.

    Exactness relative to the reference's row-major dict scan rests on two
    facts about linear-affine gaps (``open >= 1``):

    * a horizontal gap never profitably restarts from a cell whose score is
      itself horizontal-gap-derived, so ``E(j)`` is exactly the prefix
      maximum of ``H0(j0) - open - (j - j0)*extend`` over the pre-gap
      scores ``H0 = max(diagonal, vertical)``, and the reference's
      ``eh >= ee`` tie rule is exactly "last argmax" of that prefix;
    * any chain contribution that crosses a pruned cell sits strictly below
      the (monotone) pruning threshold at its destination, so computing the
      prefix over *all* corridor cells — dead ones included — can change
      neither the liveness, score, nor winning branch of a surviving cell.

    The running-best threshold of the reference is recovered per row from a
    shifted prefix maximum of the freshly computed scores (pruned cells can
    never raise the running best, so masking them first is unnecessary).

    Like the reference, the wavefront only visits the live corridor: state
    is kept for the union of the lanes' live column windows, the next row
    extends it by one diagonal step plus the maximal horizontal-gap reach
    ``xdrop // extend`` (a live gap chain decays by ``extend`` per column
    while the threshold never falls, and no pre-gap score can exceed the
    running best at a later column), and lanes whose corridor died are
    compacted away.  Lanes are ordered by descending row count so row
    retirement is a pure prefix slice.
    """
    idxs = sorted(idxs, key=lambda i: -len(pairs[i][0]))
    L = len(idxs)
    ns0 = np.array([len(pairs[i][0]) for i in idxs], dtype=np.int64)
    ms0 = np.array([len(pairs[i][1]) for i in idxs], dtype=np.int64)
    nmax = int(ns0.max())
    Wg = int(ms0.max()) + 1
    a_pad = np.zeros((L, nmax), dtype=np.intp)
    b_pad = np.zeros((L, max(Wg - 1, 1)), dtype=np.intp)
    for t, i in enumerate(idxs):
        a_pad[t, : ns0[t]] = pairs[i][0]
        b_pad[t, : ms0[t]] = pairs[i][1]
    cmat = scoring.matrix  # int32
    o = int(gap_open)
    e = int(gap_extend)
    xd = int(xdrop)
    # a live horizontal chain cell at j needs a pre-gap source c with
    # H0(c) - open - (j-c)*extend >= runbest(j) - xdrop and H0(c) <=
    # runbest(j), so j - c <= (xdrop - open) / extend
    reach = (max(0, xd - o) // e + 1) if e > 0 else Wg
    neg = np.int32(_XNEG)

    best = np.zeros(L, dtype=np.int64)
    best_i = np.zeros(L, dtype=np.int64)
    best_j = np.zeros(L, dtype=np.int64)
    best_m = np.zeros(L, dtype=np.int64)
    best_c = np.zeros(L, dtype=np.int64)

    # (matches, columns) stat pairs travel packed in one int64 per cell:
    # matches * _PACK + columns, so every branch select moves one array
    pk = np.int64(_PACK)

    # row 0: the origin plus a horizontal-gap chain while it stays within
    # xdrop of the (still zero) best; the initial window covers its extent
    hi = 1 if o > xd else int(min(Wg, ((xd - o) // e if e > 0 else Wg) + 2))
    lo = 0
    jwin = np.arange(lo, hi, dtype=np.int64)
    row0 = (-(o + jwin * e)).astype(np.int32)
    row0[0] = 0
    live0 = (row0 >= -xd) & (jwin[None, :] <= ms0[:, None])
    live0[:, 0] = True
    H = np.where(live0, row0[None, :], neg)
    F = np.full((L, hi), neg, dtype=np.int32)
    sH = np.where(H > neg, jwin[None, :], 0)  # (0 matches, j columns)
    sF = np.zeros((L, hi), dtype=np.int64)

    ids = np.arange(L)  # chunk-local lane ids, descending-n order
    ns, ms = ns0, ms0
    for i in range(1, nmax + 1):
        # retire lanes whose rows ran out (prefix: ids sorted by -n) and
        # compact away lanes whose corridor died
        cnt = int(np.searchsorted(-ns, -i, side="right"))
        if cnt == 0:
            break
        sel = np.flatnonzero((H[:cnt] > neg).any(axis=1))
        if sel.size == 0:
            break
        full = sel.size == cnt
        Wp = hi - lo
        hi = int(min(Wg, hi + 1 + reach))
        Wc = hi - lo
        jwin = np.arange(lo, hi, dtype=np.int64)

        def grow(arr, fill, dtype):
            ext = np.full((sel.size, Wc), fill, dtype=dtype)
            ext[:, :Wp] = arr[:cnt] if full else arr[sel]
            return ext

        Hp = grow(H, neg, np.int32)
        Fp = grow(F, neg, np.int32)
        pH = grow(sH, 0, np.int64)
        pF = grow(sF, 0, np.int64)
        ids = ids[:cnt][sel] if not full else ids[:cnt]
        ns = ns[:cnt][sel] if not full else ns[:cnt]
        ms = ms[:cnt][sel] if not full else ms[:cnt]

        # vertical slot: open from H above or extend F above
        fh = Hp - np.int32(o + e)
        ff = Fp - np.int32(e)
        fH = fh >= ff
        Fn = np.maximum(fh, ff)
        nF = np.where(fH, pH, pF) + 1  # one gap column
        # diagonal; bwin[:, c] is b[lo + c - 1], the residue cell c aligns
        ai = a_pad[ids, i - 1]
        bcols = np.clip(jwin - 1, 0, b_pad.shape[1] - 1)
        bwin = b_pad[ids[:, None], bcols[None, :]]
        sub = cmat[ai[:, None], bwin]
        diag = np.full_like(Hp, neg)
        # window cell 0 has no in-corridor diagonal source (column 0 of the
        # DP, or a dead cell left of the corridor)
        diag[:, 1:] = Hp[:, :-1] + sub[:, 1:]
        d = np.empty_like(pH)
        d[:, 0] = 0
        # one diagonal column: matches bumps the packed high half
        d[:, 1:] = pH[:, :-1] + (
            (ai[:, None] == bwin[:, 1:]) * pk + 1
        )
        # pre-gap score H0 = max(diag, F); diagonal wins ties
        tF = Fn > diag
        H0 = np.where(tF, Fn, diag)
        H0s = np.where(tF, nF, d)
        # horizontal slot: prefix last-argmax of u = H0 + j*extend, packed
        # with the local column so ties resolve to the latest restart
        K = np.int64(Wc)
        carr = np.arange(Wc, dtype=np.int64)
        w = (H0.astype(np.int64) + jwin[None, :] * e) * K + carr
        run = np.maximum.accumulate(w, axis=1)
        wsh = np.empty_like(run)
        wsh[:, 0] = np.int64(2 * _NEG) * K
        wsh[:, 1:] = run[:, :-1]
        A = wsh % K
        E = wsh // K - (o + jwin[None, :] * e)
        Es = np.take_along_axis(H0s, A, axis=1) + (carr[None, :] - A)
        tE = E > H0
        Hn = np.where(tE, E, H0.astype(np.int64))
        Hs = np.where(tE, Es, H0s)
        Hn = np.where(jwin[None, :] <= ms[:, None], Hn, _XNEG)
        # running-best pruning threshold (row-major semantics)
        rb = np.maximum.accumulate(Hn, axis=1)
        rbs = np.empty_like(rb)
        rbs[:, 0] = _XNEG
        rbs[:, 1:] = rb[:, :-1]
        live = Hn >= np.maximum(best[ids][:, None], rbs) - xd
        # best-cell update: first column of a strict row improvement
        rmax = Hn.max(axis=1)
        jstar = Hn.argmax(axis=1)
        upd = np.flatnonzero(rmax > best[ids])
        lu = ids[upd]
        best[lu] = rmax[upd]
        best_i[lu] = i
        best_j[lu] = lo + jstar[upd]
        stats = Hs[upd, jstar[upd]]
        best_m[lu] = stats // pk
        best_c[lu] = stats % pk
        # shrink the window to the union of live columns and store the row
        cols = np.flatnonzero(live.any(axis=0))
        if cols.size == 0:
            break
        alo, ahi = int(cols[0]), int(cols[-1]) + 1
        win = slice(alo, ahi)
        lw = live[:, win]
        H = np.where(lw, Hn[:, win], _XNEG).astype(np.int32)
        F = np.where(lw, Fn[:, win], neg)
        sH = Hs[:, win]
        sF = nF[:, win]
        lo, hi = lo + alo, lo + ahi

    for t in range(L):
        out[idxs[t]] = ExtensionResult(
            score=int(best[t]),
            ext_a=int(best_i[t]),
            ext_b=int(best_j[t]),
            matches=int(best_m[t]),
            length=int(best_c[t]),
        )


# spmd: hot-loop-ok (O(lanes)/O(chunks) driver loops around the
# vectorized chunk kernel)
def xdrop_extend_batch(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    xdrop: int,
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
) -> list[ExtensionResult]:
    """Gapped x-drop extensions over a batch of encoded pairs, one wavefront
    row advanced in every live lane at once; byte-identical to per-pair
    :func:`repro.align.xdrop.xdrop_extend` (requires ``gap_open >= 1``)."""
    if gap_open < 1:
        raise ValueError("batched x-drop requires gap_open >= 1")
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
    for chunk in _chunks_by_budget(lanes, ms, ns, _ROW_BUDGET):
        _xdrop_chunk(pairs, chunk, xdrop, scoring, gap_open, gap_extend,
                     out)
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
) -> list[AlignmentResult]:
    """Align a batch of :class:`AlignmentTask`s on the batched wavefront
    engine, preserving task order; results are byte-identical to mapping
    :func:`repro.align.batch.align_pair` over the batch."""
    if mode == "sw":
        return sw_batch(
            [(t.a, t.b) for t in tasks], scoring, gap_open, gap_extend,
            traceback,
        )
    if mode != "xd":
        raise ValueError(f"unknown alignment mode {mode!r}")
    for t in tasks:
        if not t.seeds:
            raise ValueError("XD mode requires at least one seed")
    if gap_open < 1:  # the wavefront's prefix-scan derivation needs it
        from .batch import align_pair

        return [
            align_pair(t, mode, k, scoring, gap_open, gap_extend, xdrop,
                       traceback)
            for t in tasks
        ]

    results: list[AlignmentResult | None] = [None] * len(tasks)
    plans: list[tuple[int, int, int, int, int]] = []
    ext_pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for ti, t in enumerate(tasks):
        n, m = len(t.a), len(t.b)
        if n < k or m < k:
            # no legal seed placement: skip with an explicit empty result
            results[ti] = AlignmentResult(0, 0, 0, 0, 0, 0, 0, n, m, "xd")
            continue
        for sa, sb in t.seeds[:2]:
            sa = min(max(int(sa), 0), n - k)
            sb = min(max(int(sb), 0), m - k)
            ri = len(ext_pairs)
            ext_pairs.append((t.a[sa + k :], t.b[sb + k :]))
            li = len(ext_pairs)
            ext_pairs.append((t.a[:sa][::-1], t.b[:sb][::-1]))
            plans.append((ti, sa, sb, ri, li))
    exts = xdrop_extend_batch(ext_pairs, xdrop, scoring, gap_open,
                              gap_extend)
    for ti, sa, sb, ri, li in plans:
        t = tasks[ti]
        cand = assemble_seed_extension(
            t.a, t.b, sa, sb, k, exts[li], exts[ri], scoring
        )
        prev = results[ti]
        if prev is None or cand.score > prev.score:
            results[ti] = cand
    return results  # type: ignore[return-value]
