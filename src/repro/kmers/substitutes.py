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
``E = SORT(DIAG(C) - C)`` once, stably by ``(cost, base)``: row ``r_i`` is
the option list of position ``i``, the identity included at expense 0.
Where the paper walks candidates best-first from one root at a time,
:func:`substitute_kmers_batch` folds the positions in, for many roots at
once: step ``i`` keeps each root's first ``top = m + 1`` prefixes over
positions ``0..i`` (root included) in ``(distance, prefix id)`` order, the
order the prefix ids take in the high digits of the full ids.  Step
``i + 1`` combines that list with the option list of position ``i + 1``:

    **Pair bound.**  Of two lists in ``(distance, id)`` order, rank pair
    ``(a, b)`` is among the first ``top`` combinations only if
    ``(a + 1)(b + 1) <= top``.  *Proof.*  Let ``(a, b) <= (a', b')``
    componentwise, unequal.  Distances add, so ``d(a, b) <= d(a', b')``;
    if equal, both parts are equal, where the prefix list has the smaller
    id first and the option list the smaller base first (the stable sort),
    so the id ``prefix * 24 + base`` of ``(a, b)`` is the smaller: the
    ``(a' + 1)(b' + 1) - 1`` pairs below ``(a', b')`` all precede it.  ∎

    **Truncation.**  A prefix ranked past ``top`` begins none of the
    first ``top`` candidates.  *Proof.*  Each of the ``top`` prefixes
    ahead of it, completed with the same suffix, adds the same distance
    and the same low digits, so it precedes the completion.  ∎

The pairs depend on ``top`` alone (89 for m = 25): a step is one gather of
the prefix keys, one row gather of the option table and a cut to ``top``
keys.  Nothing assumes the root at option index 0, so ambiguity-code rows
(B/Z/X/``*``), where a substitution can cost *less* than 0, stay exact.
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

#: Rank pairs times roots folded at once: keeps one step's working set at a
#: few cache-resident arrays of 256 KB each, whatever ``k`` and ``m``.
_CHUNK_CELLS = 1 << 15

#: Bound on step ``i``'s packed key ``distance * 24^(i+1) + prefix id``;
#: past it (k = 13, and k = 12 under PAM250) a step keeps the two apart.
_KEY_LIMIT = 2**63


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
    both = np.concatenate((r.ravel(), q.ravel()))
    if ((both < 0) | (both >= ALPHABET_SIZE)).any():
        raise ValueError("alphabet index out of range 0..23")
    c = scoring.matrix
    return int((c[r, r] - c[r, q]).sum())


def _place_values(k: int) -> np.ndarray:
    """``24^(k-1), ..., 24, 1``: the id weight of each k-mer position."""
    return ALPHABET_SIZE ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _rank_pairs(top: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)``, as two arrays, of every rank pair with ``(a + 1)(b + 1)
    <= top`` and ``b < 24``: the only pairs a fold step can need (module
    docstring)."""
    fanout = top // np.arange(1, min(ALPHABET_SIZE, top) + 1)
    b = np.repeat(np.arange(len(fanout)), fanout)
    a = np.arange(len(b)) - np.repeat(np.cumsum(fanout) - fanout, fanout)
    return a, b


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
    E = scoring.expense_matrix()  # row r: the option list of letter r
    costs, bases = E.costs.astype(np.int64), E.bases.astype(np.int64)
    max_cost = int(np.abs(costs).max())
    top = min(m + 1, space)  # root included
    ra, rb = _rank_pairs(top)
    # step i: its pairs within the prefix list, the length of the list it
    # leaves and, while the packed key fits, the option table it adds
    steps = []
    for i in range(k):
        pairs = ra < ALPHABET_SIZE**i
        weight = ALPHABET_SIZE ** (i + 1)
        fits = ((i + 1) * max_cost + 1) * weight < _KEY_LIMIT
        table = (costs * weight + bases)[:, rb[pairs]] if fits else None
        steps.append((ra[pairs], rb[pairs], min(top, weight), table))

    out_ids = np.empty((len(roots), top - 1), dtype=np.int64)
    out_dist = np.empty_like(out_ids)
    chunk = max(1, _CHUNK_CELLS // len(ra))
    for lo in range(0, len(roots), chunk):
        root = roots[lo:lo + chunk, None]
        digits = (root // _place_values(k)) % ALPHABET_SIZE  # (P, k)
        key = np.zeros((len(root), 1), dtype=np.int64)
        dist = ids = None
        for i, (a, b, keep, table) in enumerate(steps):
            digit = digits[:, i]
            if table is not None:  # key = distance * 24^(i+1) + prefix id
                key = key[:, a] * ALPHABET_SIZE + table[digit]
                if key.shape[1] > keep:
                    key.partition(keep - 1, axis=1)
                key = np.sort(key[:, :keep], axis=1)
                continue
            if dist is None:  # the key no longer fits int64: split it
                dist, ids = np.divmod(key, ALPHABET_SIZE**i)
            dist = dist[:, a] + costs[digit][:, b]
            ids = ids[:, a] * ALPHABET_SIZE + bases[digit][:, b]
            order = np.lexsort((ids, dist), axis=1)[:, :keep]
            dist = np.take_along_axis(dist, order, axis=1)
            ids = np.take_along_axis(ids, order, axis=1)
        if dist is None:
            dist, ids = np.divmod(key, space)
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
