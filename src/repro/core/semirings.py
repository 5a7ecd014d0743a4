"""PASTIS's AS semiring and the seed encodings (paper Sections IV-A,
IV-C).

``A[i, t]`` is the position of k-mer ``t`` in sequence ``i``; ``S[t, u]``
the distance from k-mer ``t`` to its substitute ``u``; ``AS[i, u]`` the
closest k-mer's seed hit ``(position, distance)`` packed into one int64
(:func:`substitute_as_numeric_semiring`); ``B[i, j]`` the shared-k-mer
count (:data:`repro.sparse.semiring.COUNTING`), all the CK filter reads.
A surviving pair's up to :data:`MAX_SEEDS` seeds ``(pos_i, pos_j,
distance)`` are joined after CK, each packed into an int64 whose integer
order is the canonical seed order (:func:`pack_seeds`).  The paper's
object formulation (``CommonKmers`` / ``SeedHit``) is the tests' oracle.

The one-pass formulation — every ``B`` entry a :data:`CK_DTYPE` record of
count and seeds, folded by the SpGEMM itself — stays runnable on the same
numeric SUMMA (:func:`exact_overlap_semiring`,
:func:`substitute_overlap_encoded_semiring`) for the per-layer probes of
``benchmarks/e2e``; the pipeline does not call it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..sparse.coo import stable_order
from ..sparse.semiring import NumericSpec, Semiring

__all__ = [
    "MAX_SEEDS",
    "SEED_ENCODE_SHIFT",
    "CK_DIST_LIMIT",
    "CK_SEED_LIMIT",
    "CK_SEED_NONE",
    "check_seed_distances",
    "pack_seeds",
    "unpack_seeds",
    "lowest_seeds",
    "substitute_as_numeric_semiring",
    "CK_DTYPE",
    "CommonKmerRecord",
    "exact_overlap_semiring",
    "substitute_overlap_encoded_semiring",
    "is_ck_records",
    "records_to_common_kmers",
]

#: "Currently, a maximum of two shared k-mer locations per sequence pair are
#: kept out of all such possible pairs." (Section IV-A)
MAX_SEEDS = 2


# ---------------------------------------------------------------------------
# AS: seed hits packed into int64
# ---------------------------------------------------------------------------

#: A seed hit ``(position, distance)`` packs into one int64 as ``distance *
#: SHIFT + position``; because ``0 <= position < SHIFT``, integer ``min``
#: over the encoding realises exactly the lexicographic ``(distance,
#: position)`` min of the AS semiring's add — which is what lets the AS
#: stage run on the vectorized numeric SpGEMM path.  ``%`` and floor
#: ``//`` decode signed distances (an ambiguity code's expense can be
#: negative), and decode a bare position of ``A`` as distance 0.
SEED_ENCODE_SHIFT = np.int64(1) << 32


def substitute_as_numeric_semiring() -> Semiring:
    """``AS`` (Section IV-C) on packed seed hits.

    ``A`` holds int positions and ``S`` int distances, so the whole ``AS``
    stage fits a numeric semiring once the hit is packed into int64 (see
    :data:`SEED_ENCODE_SHIFT`): multiply encodes, add is integer min — the
    closest k-mer wins when a substitute is reachable from several k-mers
    of the same sequence.  The same callables serve scalars and arrays, so
    the generic and vectorized kernels share one definition and cannot
    drift.
    """

    def mul(pos, dist):
        return dist * SEED_ENCODE_SHIFT + pos

    def add(x, y):
        return x if x <= y else y

    return Semiring(
        "pastis_as_numeric", add, mul,
        numeric=NumericSpec(np.int64, np.minimum, mul),
    )


# ---------------------------------------------------------------------------
# B's seeds: (pos_row, pos_col, distance) packed into int64
# ---------------------------------------------------------------------------

#: A seed ``(pos_row, pos_col, distance)`` packs into one int64 as
#: ``(distance * LIMIT + pos_row) * LIMIT + pos_col``, so integer order over
#: the packing equals the canonical seed order ``(distance, pos_row,
#: pos_col)``, negative distances included.  Positions lie in ``[0,
#: CK_SEED_LIMIT)`` and ``|distance|`` below :data:`CK_DIST_LIMIT` for every
#: input the pipeline accepts (the store bounds sequence lengths, the config
#: k-mer expenses, the driver an injected ``S``), so the pack is total.
CK_SEED_LIMIT = np.int64(1) << 21

#: Distance bound of the seed pack: one below :data:`CK_SEED_LIMIT`, so
#: the maximal packable triple stays strictly below int64 max and can
#: never collide with the :data:`CK_SEED_NONE` sentinel.
CK_DIST_LIMIT = CK_SEED_LIMIT - 1

#: Sentinel for an unused seed slot; int64 max so packed seeds sort first
#: and empty slots stay at the tail under ``np.sort``.  The distance bound
#: above reserves this value: no real seed packs to it.
CK_SEED_NONE = np.int64(np.iinfo(np.int64).max)


def check_seed_distances(dist) -> None:
    """Raise :class:`ValueError` unless every distance fits the seed pack,
    ``-CK_DIST_LIMIT < dist < CK_DIST_LIMIT``."""
    d = np.asarray(dist, dtype=np.int64)
    lim = int(CK_DIST_LIMIT)
    if d.size and (int(d.min()) <= -lim or int(d.max()) >= lim):
        raise ValueError(
            f"seed distance out of the packable range ({-lim}, {lim})"
        )


def pack_seeds(pos_row, pos_col, dist):
    """Pack ``(pos_row, pos_col, distance)`` seeds (scalars or arrays) into
    int64 preserving the canonical ``(distance, pos_row, pos_col)`` order."""
    pr = np.asarray(pos_row, dtype=np.int64)
    pc = np.asarray(pos_col, dtype=np.int64)
    d = np.asarray(dist, dtype=np.int64)
    for name, arr in (("pos_row", pr), ("pos_col", pc)):
        if arr.size and (int(arr.min()) < 0
                         or int(arr.max()) >= int(CK_SEED_LIMIT)):
            raise ValueError(
                f"seed {name} out of the packable range "
                f"[0, {int(CK_SEED_LIMIT)})"
            )
    check_seed_distances(d)
    return (d * CK_SEED_LIMIT + pr) * CK_SEED_LIMIT + pc


def unpack_seeds(packed):
    """Unpack int64 seeds into ``(pos_row, pos_col, distance)``.  Sentinel
    (:data:`CK_SEED_NONE`) entries decode to arbitrary values — mask them
    out first."""
    p = np.asarray(packed, dtype=np.int64)
    return (p // CK_SEED_LIMIT) % CK_SEED_LIMIT, p % CK_SEED_LIMIT, (
        p // (CK_SEED_LIMIT * CK_SEED_LIMIT)
    )


def lowest_seeds(group: np.ndarray, packed: np.ndarray,
                 ngroups: int) -> np.ndarray:
    """The :data:`MAX_SEEDS` lowest packed seeds of each group ``g`` in
    ``range(ngroups)`` (``packed[e]`` belongs to ``group[e]``), as an
    ``(ngroups, MAX_SEEDS)`` array, ascending per row, padded with
    :data:`CK_SEED_NONE`."""
    order = stable_order((packed, group))
    group, packed = group[order], packed[order]
    # rank of each seed within its group's ascending run
    rank = np.arange(len(group)) - np.searchsorted(group, group)
    top = rank < MAX_SEEDS
    out = np.full((ngroups, MAX_SEEDS), CK_SEED_NONE, dtype=np.int64)
    out[group[top], rank[top]] = packed[top]
    return out


# ---------------------------------------------------------------------------
# B as records: count and seeds folded by the SpGEMM itself
# ---------------------------------------------------------------------------

#: One ``B`` entry as a record: the shared-k-mer count and the entry's
#: :data:`MAX_SEEDS` lowest packed seeds, ascending, padded with
#: :data:`CK_SEED_NONE`.  The pipeline never builds it — its ``B`` is a
#: count and seeds come after CK — but the record semirings below keep
#: the one-pass formulation (every ``B`` entry carries its seeds through
#: the SUMMA) runnable for the per-layer probes of ``benchmarks/e2e``.
CK_DTYPE = np.dtype([("count", np.int64), ("seeds", np.int64, (MAX_SEEDS,))])


class CommonKmerRecord(NamedTuple):
    """One decoded record: the count and its ``(pos_row, pos_col,
    distance)`` seeds in canonical order."""

    count: int
    seeds: tuple[tuple[int, int, int], ...]


class _RecordFold:
    """The records' ``add`` in ufunc form: ``reduceat`` sums each group's
    counts and keeps its :data:`MAX_SEEDS` lowest seeds."""

    @staticmethod
    def reduceat(records: np.ndarray, starts) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        out = np.empty(len(starts), dtype=CK_DTYPE)
        if len(starts) == 0:
            return out
        out["count"] = np.add.reduceat(records["count"], starts)
        sizes = np.diff(np.append(starts, len(records)))
        group = np.repeat(np.arange(len(starts)), sizes * MAX_SEEDS)
        out["seeds"] = lowest_seeds(group, records["seeds"].ravel(),
                                    len(starts))
        return out


class _RecordSpec(NumericSpec):
    """The record semirings' numeric spec: it covers integer operands
    (the multiply: positions, packed seed hits) or record operands (the
    fold), nothing else — a float or bool operand is a
    :class:`~repro.sparse.semiring.NoKernelError`, never a truncation."""

    def compatible(self, *dtypes) -> bool:
        dts = {np.dtype(dt) for dt in dtypes}
        return dts == {CK_DTYPE} or all(dt.kind in "iu" for dt in dts)


def _seed_records(hit, pos_col) -> np.ndarray:
    """One record per partial product: count 1 and the seed ``(hit
    position, pos_col, hit distance)`` — a bare position of ``A`` decodes
    as distance 0, so one multiply serves ``A Aᵀ`` and ``(AS) Aᵀ``."""
    hit = np.asarray(hit, dtype=np.int64)
    out = np.empty(hit.shape, dtype=CK_DTYPE)
    out["count"] = 1
    out["seeds"] = CK_SEED_NONE
    out["seeds"][..., 0] = pack_seeds(
        hit % SEED_ENCODE_SHIFT, pos_col, hit // SEED_ENCODE_SHIFT
    )
    return out


def _add_records(x, y):
    return _RecordFold.reduceat(np.stack((x, y)), [0])[0]


def _record_semiring(name: str) -> Semiring:
    return Semiring(
        name, _add_records, _seed_records,
        numeric=_RecordSpec(CK_DTYPE, _RecordFold(), _seed_records),
    )


def exact_overlap_semiring() -> Semiring:
    """``B = A Aᵀ`` (Fig. 4) on :data:`CK_DTYPE` records: multiply pairs
    the two positions of a shared k-mer (distance 0), add sums counts and
    keeps the lowest seeds."""
    return _record_semiring("pastis_exact_overlap")


def substitute_overlap_encoded_semiring() -> Semiring:
    """``(AS) Aᵀ`` (Section IV-C) on :data:`CK_DTYPE` records, ``AS``
    holding packed seed hits (:func:`substitute_as_numeric_semiring`);
    seeds in AS-side orientation."""
    return _record_semiring("pastis_substitute_overlap")


def is_ck_records(arr) -> bool:
    """Whether a value array holds :data:`CK_DTYPE` records."""
    return getattr(arr, "dtype", None) == CK_DTYPE


def records_to_common_kmers(records: np.ndarray) -> list[CommonKmerRecord]:
    """Decode :data:`CK_DTYPE` records, sentinel slots dropped."""
    seeds = records["seeds"]
    pos_row, pos_col, dist = (x.tolist() for x in unpack_seeds(seeds))
    valid = (seeds != CK_SEED_NONE).tolist()
    return [
        CommonKmerRecord(count, tuple(
            (r, c, d) for r, c, d, v in zip(rs, cs, ds, vs) if v
        ))
        for count, rs, cs, ds, vs in zip(
            records["count"].tolist(), pos_row, pos_col, dist, valid
        )
    ]
