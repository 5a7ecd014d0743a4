"""PASTIS's custom semirings (paper Sections IV-A and IV-C).

Matrix values:

* ``A[i, t]``   — starting position (int) of k-mer ``t`` in sequence ``i``;
* ``S[t, u]``   — substitution distance (int) from k-mer ``t`` to its
  substitute ``u`` (0 on the diagonal);
* ``AS[i, u]``  — :class:`SeedHit` ``(position, distance)``: where the
  closest k-mer of sequence ``i`` mapping to substitute ``u`` starts.  When
  several k-mers of the sequence share the substitute, the *closest* one
  (minimum distance) wins — the paper's AS semiring;
* ``B[i, j]``   — :class:`CommonKmers`: the number of shared (substitute)
  k-mers plus up to ``MAX_SEEDS`` seed pairs, each ``(pos_i, pos_j,
  distance)``, kept in ascending distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.semiring import NumericSpec, Semiring, StructSpec

__all__ = [
    "SeedHit",
    "CommonKmers",
    "MAX_SEEDS",
    "SEED_ENCODE_SHIFT",
    "CK_DTYPE",
    "CK_DIST_LIMIT",
    "CK_SEED_FIELDS",
    "CK_SEED_LIMIT",
    "CK_SEED_NONE",
    "check_seed_distances",
    "encode_seed_hits",
    "pack_seeds",
    "unpack_seeds",
    "is_ck_records",
    "common_kmers_to_records",
    "records_to_common_kmers",
    "ck_flip_records",
    "ck_merge_records",
    "ck_struct_spec",
    "exact_overlap_semiring",
    "substitute_as_semiring",
    "substitute_as_numeric_semiring",
    "substitute_overlap_semiring",
    "substitute_overlap_encoded_semiring",
    "merge_common_kmers",
]

#: "Currently, a maximum of two shared k-mer locations per sequence pair are
#: kept out of all such possible pairs." (Section IV-A)
MAX_SEEDS = 2


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

    return Semiring(
        "pastis_exact_overlap", merge_common_kmers, mul,
        struct=ck_struct_spec(encoded=False),
    )


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


# ---------------------------------------------------------------------------
# numeric twins: SeedHit packed into int64
# ---------------------------------------------------------------------------

#: A :class:`SeedHit` packs into one int64 as ``distance * SHIFT +
#: position``; because ``0 <= position < SHIFT``, integer ``min`` over the
#: encoding realises exactly the lexicographic ``(distance, position)`` min
#: of the AS semiring's add — which is what lets the AS stage run on the
#: vectorized numeric SpGEMM path.  ``%`` and floor ``//`` decode signed
#: distances (an ambiguity code's expense can be negative).
SEED_ENCODE_SHIFT = np.int64(1) << 32


def encode_seed_hits(positions, distances):
    """Pack ``(position, distance)`` pairs (scalars or arrays) into int64."""
    return (
        np.asarray(distances, dtype=np.int64) * SEED_ENCODE_SHIFT
        + np.asarray(positions, dtype=np.int64)
    )


def substitute_as_numeric_semiring() -> Semiring:
    """Numeric twin of :func:`substitute_as_semiring`.

    ``A`` holds int positions and ``S`` int distances, so the whole ``AS``
    stage fits a numeric semiring once the :class:`SeedHit` is packed into
    int64 (see :data:`SEED_ENCODE_SHIFT`): multiply encodes, add is integer
    min.  The same callables serve scalars and arrays, so the generic and
    vectorized kernels share one definition and cannot drift.
    """

    def mul(pos, dist):
        return dist * SEED_ENCODE_SHIFT + pos

    def add(x, y):
        return x if x <= y else y

    return Semiring(
        "pastis_as_numeric", add, mul,
        numeric=NumericSpec(np.int64, np.minimum, mul),
    )


def substitute_overlap_encoded_semiring() -> Semiring:
    """``(A S) Aᵀ`` when ``AS`` carries int64-encoded seed hits instead of
    :class:`SeedHit` objects; output values are :class:`CommonKmers` as in
    :func:`substitute_overlap_semiring`."""

    def mul(enc, pos_c) -> CommonKmers:
        return CommonKmers(
            1,
            ((int(enc % SEED_ENCODE_SHIFT), int(pos_c),
              int(enc // SEED_ENCODE_SHIFT)),),
        )

    return Semiring(
        "pastis_substitute_overlap_encoded", merge_common_kmers, mul,
        struct=ck_struct_spec(encoded=True),
    )


# ---------------------------------------------------------------------------
# struct twins: CommonKmers as struct-of-arrays record columns
# ---------------------------------------------------------------------------

#: A ``B``-stage seed ``(pos_row, pos_col, distance)`` packs into one int64
#: as ``(distance * LIMIT + pos_row) * LIMIT + pos_col``, so integer order
#: over the packing equals the canonical CommonKmers seed order
#: ``(distance, pos_row, pos_col)``, negative distances included.  Positions
#: lie in ``[0, CK_SEED_LIMIT)`` and ``|distance|`` below
#: :data:`CK_DIST_LIMIT` for every input the pipeline accepts (the store
#: bounds sequence lengths, the config k-mer expenses), so the pack is
#: total.
CK_SEED_LIMIT = np.int64(1) << 21

#: Distance bound of the seed pack: one below :data:`CK_SEED_LIMIT`, so
#: the maximal packable triple stays strictly below int64 max and can
#: never collide with the :data:`CK_SEED_NONE` sentinel.
CK_DIST_LIMIT = CK_SEED_LIMIT - 1

#: Sentinel for an unused seed slot; int64 max so packed seeds sort first
#: and empty slots stay at the tail under ``np.sort``.  The distance bound
#: above reserves this value: no real seed packs to it.
CK_SEED_NONE = np.int64(np.iinfo(np.int64).max)

#: Record columns of a struct-valued ``B``: the shared-k-mer count plus the
#: top-``MAX_SEEDS`` packed seeds in ascending canonical order.
CK_SEED_FIELDS = tuple(f"seed{s + 1}" for s in range(MAX_SEEDS))
CK_DTYPE = np.dtype(
    [("count", np.int64)] + [(f, np.int64) for f in CK_SEED_FIELDS]
)


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


def is_ck_records(arr) -> bool:
    """Whether a value array holds struct-of-arrays CommonKmers records."""
    return getattr(arr, "dtype", None) == CK_DTYPE


def _ck_blank(n: int) -> np.ndarray:
    rec = np.empty(n, dtype=CK_DTYPE)
    rec["count"] = 1
    for f in CK_SEED_FIELDS[1:]:
        rec[f] = CK_SEED_NONE
    return rec


def _ck_expand_exact(pos_r: np.ndarray, pos_c: np.ndarray) -> np.ndarray:
    """One record per exact partial product: count 1, one seed at
    distance 0."""
    rec = _ck_blank(len(pos_r))
    rec["seed1"] = pack_seeds(pos_r, pos_c, np.zeros(len(pos_r), np.int64))
    return rec


def _ck_expand_encoded(enc: np.ndarray, pos_c: np.ndarray) -> np.ndarray:
    """One record per ``(AS) Aᵀ`` partial product: the AS value is an
    int64-encoded :class:`SeedHit` (see :data:`SEED_ENCODE_SHIFT`)."""
    enc = np.asarray(enc, dtype=np.int64)
    rec = _ck_blank(len(enc))
    rec["seed1"] = pack_seeds(
        enc % SEED_ENCODE_SHIFT, pos_c, enc // SEED_ENCODE_SHIFT
    )
    return rec


def _ck_sort_key(records: np.ndarray) -> np.ndarray:
    # expanded records carry their single seed in ``seed1``; sorting by it
    # realises the canonical (distance, pos_row, pos_col) group order
    return records["seed1"]


def _ck_reduce(records: np.ndarray, starts: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """Fold groups of expanded records (sorted by ``seed1`` within each
    group): count = group size, seeds = the ``MAX_SEEDS`` lowest."""
    out = np.empty(len(starts), dtype=CK_DTYPE)
    out["count"] = np.add.reduceat(records["count"], starts)
    for s, f in enumerate(CK_SEED_FIELDS):
        col = np.full(len(starts), CK_SEED_NONE, dtype=np.int64)
        has = sizes > s
        col[has] = records["seed1"][starts[has] + s]
        out[f] = col
    return out


def ck_merge_records(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise :meth:`CommonKmers.merge` on aligned record arrays:
    counts add, seeds are the ``MAX_SEEDS`` lowest of the union (sentinels
    sort last, so unused slots never displace real seeds)."""
    out = np.empty(len(x), dtype=CK_DTYPE)
    out["count"] = x["count"] + y["count"]
    stacked = np.stack(
        [x[f] for f in CK_SEED_FIELDS] + [y[f] for f in CK_SEED_FIELDS],
        axis=1,
    )
    stacked.sort(axis=1)
    for s, f in enumerate(CK_SEED_FIELDS):
        out[f] = stacked[:, s]
    return out


def ck_flip_records(records: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`CommonKmers.flip`: swap the row/column role of
    every seed, then restore ascending canonical order."""
    cols = []
    for f in CK_SEED_FIELDS:
        packed = records[f]
        valid = packed != CK_SEED_NONE
        pr, pc, d = unpack_seeds(packed)
        # sentinel lanes decode to garbage outside the packable range;
        # zero them before repacking, then restore the sentinel
        pr, pc, d = (np.where(valid, x, 0) for x in (pr, pc, d))
        cols.append(np.where(valid, pack_seeds(pc, pr, d), CK_SEED_NONE))
    stacked = np.stack(cols, axis=1)
    stacked.sort(axis=1)
    out = np.empty(len(records), dtype=CK_DTYPE)
    out["count"] = records["count"]
    for s, f in enumerate(CK_SEED_FIELDS):
        out[f] = stacked[:, s]
    return out


def records_to_common_kmers(records: np.ndarray) -> np.ndarray:
    """Record array -> ``dtype=object`` array of :class:`CommonKmers`."""
    out = np.empty(len(records), dtype=object)
    seed_cols = [records[f] for f in CK_SEED_FIELDS]
    for i in range(len(records)):
        seeds = []
        for col in seed_cols:
            packed = int(col[i])
            if packed == int(CK_SEED_NONE):
                break
            pr, pc, d = unpack_seeds(packed)
            seeds.append((int(pr), int(pc), int(d)))
        out[i] = CommonKmers(int(records["count"][i]), tuple(seeds))
    return out


def common_kmers_to_records(values) -> np.ndarray:
    """``dtype=object`` array (or sequence) of :class:`CommonKmers` ->
    record array."""
    values = list(values)
    out = np.empty(len(values), dtype=CK_DTYPE)
    for i, v in enumerate(values):
        out["count"][i] = v.count
        for s, f in enumerate(CK_SEED_FIELDS):
            if s < len(v.seeds):
                pr, pc, d = v.seeds[s]
                out[f][i] = pack_seeds(pr, pc, d)
            else:
                out[f][i] = CK_SEED_NONE
    return out


def ck_struct_spec(encoded: bool) -> StructSpec:
    """The :class:`~repro.sparse.semiring.StructSpec` of the ``B``-stage
    semirings: ``encoded=True`` for ``(AS) Aᵀ`` (left values are packed
    seed hits), ``False`` for exact ``A Aᵀ`` (left values are positions)."""
    return StructSpec(
        dtype=CK_DTYPE,
        expand=_ck_expand_encoded if encoded else _ck_expand_exact,
        reduce=_ck_reduce,
        merge=ck_merge_records,
        sort_key=_ck_sort_key,
        operand_dtype=np.int64,
    )
