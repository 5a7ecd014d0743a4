"""m-nearest substitute k-mers (paper Section IV-B, Algorithms 1-3).

Given a k-mer ``r`` and a scoring matrix ``C``, the *distance* (expense) of a
candidate k-mer ``q`` is ``sum_i (C[r_i, r_i] - C[r_i, q_i])`` — the score
lost when ``q`` appears in place of ``r``.  PASTIS takes the ``m`` candidates
with the smallest distance; these may be several substitutions away (the
paper's AAC example, where two cheap substitutions beat one expensive one).
Equidistant candidates are ordered by substitute id, so "the m nearest" means
the first ``m`` in ``(distance, substitute id)`` order, root excluded —
exactly what the oracle :func:`brute_force_substitutes` enumerates.

Like the paper we pre-sort each alphabet row of the expense matrix
``E = SORT(DIAG(C) - C)`` once.  A candidate is then an index vector ``j``
into the k per-position sorted option lists (one row of ``E`` per k-mer
position, the identity included at expense 0).  Where the paper walks that
space best-first from one root at a time, :func:`substitute_kmers_batch`
searches a fixed *lattice* of index vectors for many roots at once:

    **Lattice bound.**  The ``m + 1`` nearest candidates (root included) all
    have ``prod_i (j_i + 1) <= m + 1``.

    *Proof.*  ``ExpenseMatrix.from_scoring`` sorts each option list stably
    by ``(cost, base)``.  Let ``j <= j'`` componentwise, ``j != j'``.  Costs
    ascend along every list, so ``distance(j) <= distance(j')``; if the two
    are equal, the cost is equal at every position, where the stable sort
    put the smaller base first, so every digit of ``id(j)`` is ``<=`` the
    digit of ``id(j')`` and one is smaller.  Hence ``j`` strictly precedes
    ``j'`` in ``(distance, id)`` order, and ``j'`` is preceded by at least
    the ``prod_i (j'_i + 1) - 1`` vectors below it: it can be among the
    first ``m + 1`` only if that product is at most ``m + 1``.  ∎

The lattice depends on ``(k, m)`` alone — 1 254 points for k=6, m=25 — so
every root's candidates are one gather per position and the cut is a
partition plus a sort of ``m + 1`` keys.  Nothing assumes the root sits at
option index 0, so ambiguity-code rows (B/Z/X/``*``), where the diagonal is
not the row maximum and a substitution can have *negative* expense, stay
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bio.alphabet import ALPHABET_SIZE
from ..bio.scoring import BLOSUM62, ScoringMatrix
from .encoding import decode_kmer, encode_kmer, kmer_space_size

__all__ = [
    "SubstituteKmer",
    "find_substitute_kmers",
    "substitute_kmer_ids",
    "substitute_kmers_batch",
    "brute_force_substitutes",
    "kmer_distance",
]

#: Lattice points times roots searched at once: keeps the working set of one
#: chunk at a few cache-resident arrays of 256 KB each, whatever ``k`` and
#: ``m`` (measured: 4x larger chunks run about 2x slower).
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class SubstituteKmer:
    """One substitute k-mer: its alphabet indices and its distance from the
    root k-mer.  The root itself is never returned, but distances can be
    negative for roots containing ambiguity codes."""

    indices: tuple[int, ...]
    distance: int

    @property
    def kmer_id(self) -> int:
        return encode_kmer(np.asarray(self.indices, dtype=np.int64))


def kmer_distance(
    root: np.ndarray, candidate: np.ndarray, scoring: ScoringMatrix = BLOSUM62
) -> int:
    """Expense of ``candidate`` substituting ``root``:
    ``sum_i C[r_i, r_i] - C[r_i, q_i]``."""
    r = np.asarray(root, dtype=np.intp)
    q = np.asarray(candidate, dtype=np.intp)
    if r.shape != q.shape:
        raise ValueError("k-mers must have equal length")
    c = scoring.matrix
    return int((c[r, r] - c[r, q]).sum())


def _place_values(k: int) -> np.ndarray:
    """``24^(k-1), ..., 24, 1``: the id weight of each k-mer position."""
    return ALPHABET_SIZE ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _lattice(k: int, m: int) -> np.ndarray:
    """Every option-index vector ``j`` (one row each, shape ``(L, k)``) with
    ``prod(j + 1) <= m + 1`` and ``j < 24`` — a superset of the ``m + 1``
    nearest candidates of any root (module docstring)."""
    vecs = np.zeros((1, 0), dtype=np.intp)
    prod = np.ones(1, dtype=np.int64)
    for _ in range(k):
        fanout = np.minimum(ALPHABET_SIZE, (m + 1) // prod)
        parent = np.repeat(np.arange(len(prod)), fanout)
        j = np.arange(len(parent)) - np.repeat(
            np.cumsum(fanout) - fanout, fanout
        )
        vecs = np.column_stack((vecs[parent], j))
        prod = prod[parent] * (j + 1)
    return vecs


def _nearest(
    dist: np.ndarray, ids: np.ndarray, top: int, space: int, packable: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` first entries of every column of the ``(L, P)`` arrays
    ``(dist, ids)`` in ``(distance, id)`` order, as ``(dist, ids)`` of shape
    ``(P, top)``.

    The fused key ``distance * 24^k + id`` allows a partition instead of a
    full sort, but overflows int64 for large ``k`` (``24^13`` is within a
    factor 11 of ``2^63``): ``packable`` says whether it fits."""
    if packable:
        key = np.ascontiguousarray((dist * space + ids).T)
        key.partition(top - 1, axis=1)
        key = np.sort(key[:, :top], axis=1)
        return key // space, key % space
    dist, ids = dist.T, ids.T
    order = np.lexsort((ids, dist), axis=1)[:, :top]
    return (np.take_along_axis(dist, order, axis=1),
            np.take_along_axis(ids, order, axis=1))


def substitute_kmers_batch(
    kmer_ids: np.ndarray,
    k: int,
    m: int,
    scoring: ScoringMatrix = BLOSUM62,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` nearest substitute k-mers of every root in ``kmer_ids``
    (FINDSUBKMERS, all roots at once).

    Returns ``(substitute ids, distances)``, both int64 of shape
    ``(len(kmer_ids), min(m, 24^k - 1))``; row ``i`` lists the substitutes
    of ``kmer_ids[i]`` in ascending ``(distance, substitute id)`` order, the
    root itself excluded.  Rows are independent: the result does not depend
    on which other roots share the call.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    space = kmer_space_size(k)
    roots = np.asarray(kmer_ids, dtype=np.int64).ravel()
    if len(roots) and not 0 <= roots.min() <= roots.max() < space:
        raise ValueError("k-mer id out of range")
    E = scoring.expense_matrix()
    # transposed once: column r of costs_t is the sorted option list of r
    costs_t = E.costs.T.astype(np.int64)
    bases_t = E.bases.T.astype(np.int64)
    place = _place_values(k)
    packable = (k * int(np.abs(costs_t).max()) + 1) * space < 2**63

    lattice = np.ascontiguousarray(_lattice(k, m).T)  # (k, L)
    top = min(m + 1, space)  # root included
    out_ids = np.empty((len(roots), top - 1), dtype=np.int64)
    out_dist = np.empty_like(out_ids)
    chunk = max(1, _CHUNK_CELLS // lattice.shape[1])
    for lo in range(0, len(roots), chunk):
        root = roots[lo:lo + chunk, None]
        digits = (root // place) % ALPHABET_SIZE  # (P, k)
        dist = np.zeros((lattice.shape[1], len(root)), dtype=np.int64)
        ids = np.zeros_like(dist)
        for i in range(k):
            # (24, P) option tables of position i, gathered to (L, P)
            dist += costs_t[:, digits[:, i]].take(lattice[i], axis=0)
            ids += (bases_t[:, digits[:, i]] * place[i]).take(
                lattice[i], axis=0
            )
        dist, ids = _nearest(dist, ids, top, space, packable)
        # drop one entry per root: the root where it made the cut, else
        # the last (the root can rank below m negative-expense candidates)
        drop = ids == root
        drop[:, -1] |= ~drop.any(axis=1)
        out_ids[lo:lo + chunk] = ids[~drop].reshape(len(root), top - 1)
        out_dist[lo:lo + chunk] = dist[~drop].reshape(len(root), top - 1)
    return out_ids, out_dist


def find_substitute_kmers(
    root: np.ndarray, m: int, scoring: ScoringMatrix = BLOSUM62
) -> list[SubstituteKmer]:
    """The ``m`` nearest substitute k-mers of ``root`` (FINDSUBKMERS): the
    batch of one.

    Results are in ascending ``(distance, substitute id)`` order.  The root
    itself is excluded.  When fewer than ``m`` distinct candidates exist
    (tiny k), all of them are returned.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    r = np.asarray(root, dtype=np.int64)
    k = len(r)
    if m == 0 or k == 0:
        return []
    ids, dist = substitute_kmers_batch([encode_kmer(r)], k, m, scoring)
    indices = (ids[0][:, None] // _place_values(k)) % ALPHABET_SIZE
    return [
        SubstituteKmer(tuple(idx), d)
        for idx, d in zip(indices.tolist(), dist[0].tolist())
    ]


def substitute_kmer_ids(
    kmer_id: int, k: int, m: int, scoring: ScoringMatrix = BLOSUM62
) -> list[tuple[int, int]]:
    """``(substitute id, distance)`` pairs for a k-mer given by id."""
    ids, dist = substitute_kmers_batch([kmer_id], k, m, scoring)
    return list(zip(ids[0].tolist(), dist[0].tolist()))


def brute_force_substitutes(
    root: np.ndarray, m: int, scoring: ScoringMatrix = BLOSUM62
) -> list[SubstituteKmer]:
    """Oracle: enumerate all |Sigma|^k k-mers, sort by distance, return the
    ``m`` nearest (root excluded).  Only viable for small k."""
    r = np.asarray(root, dtype=np.int64)
    k = len(r)
    if k == 0 or m == 0:
        return []
    c = scoring.matrix
    # distance contribution of each (position, letter) choice
    contrib = np.empty((k, ALPHABET_SIZE), dtype=np.int64)
    for pos in range(k):
        base = int(r[pos])
        contrib[pos] = c[base, base] - c[base]
    total = ALPHABET_SIZE**k
    dists = np.zeros(total, dtype=np.int64)
    for pos in range(k):
        reps = ALPHABET_SIZE ** (k - 1 - pos)
        tile = np.repeat(contrib[pos], reps)
        dists += np.tile(tile, total // (reps * ALPHABET_SIZE))
    root_id = encode_kmer(r)
    order = np.argsort(dists, kind="stable")
    out: list[SubstituteKmer] = []
    for kid in order:
        if int(kid) == root_id:
            continue
        out.append(
            SubstituteKmer(
                tuple(int(x) for x in decode_kmer(int(kid), k)),
                int(dists[kid]),
            )
        )
        if len(out) == m:
            break
    return out
