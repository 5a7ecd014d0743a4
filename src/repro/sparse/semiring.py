"""User-defined semirings (CombBLAS-style) with an optional numeric spec.

A semiring supplies the two binary operators used by SpGEMM: ``multiply``
combines one value of ``A`` with one value of ``B`` into a partial product,
and ``add`` folds partial products for the same output coordinate.  PASTIS
overloads both to thread k-mer positions through ``A Aᵀ`` and ``A S Aᵀ``
(paper Section IV-A/IV-C); this module provides the abstraction plus the
standard arithmetic semirings used as references.

Numeric-semiring contract
-------------------------
A semiring may additionally declare a :class:`NumericSpec`, which lets the
SpGEMM kernels replace the per-element Python ``add``/``multiply`` dispatch
with whole-array NumPy operations (row-expansion + a stable radix
group-by + ``ufunc.reduceat``).  The spec must satisfy:

* ``add`` is a **binary ufunc** (``np.add``, ``np.minimum``, ...) whose
  ``reduceat`` over a contiguous group equals the left fold of the scalar
  ``add`` over the same elements in the same order;
* ``multiply`` is **vectorized**: given two equal-length value arrays it
  returns the array of partial products, elementwise equal to the scalar
  ``multiply``;
* ``dtype`` is the canonical accumulator dtype.  The spec covers a product
  when both operands' value dtypes can be cast to it under ``casting``
  (default ``"same_kind"``).

The scalar ``add``/``multiply`` remain required and authoritative: the
reference :func:`~repro.sparse.spgemm.spgemm_hash` runs them, and
``tests/test_spgemm_crossval.py`` asserts both formulations agree, bitwise
(the vectorized kernels fold groups in the scalar kernels' order).  A
product no spec covers raises :class:`NoKernelError`.

Struct-semiring contract
------------------------
Some semirings produce values that do not fit one scalar — PASTIS's
``CommonKmers`` carries a count plus the top-``MAX_SEEDS`` seed pairs.  A
:class:`StructSpec` declares the vectorized form of such a semiring over a
NumPy *structured* dtype (struct-of-arrays record columns):

* ``expand`` turns the aligned operand value arrays of a partial-product
  stream into one record per partial product (the vectorized ``multiply``);
* ``reduce`` folds each group of a coordinate-sorted record stream into one
  record (the vectorized ``add`` over raw partial products); it is only ever
  applied to ``expand`` output, sorted within each group by ``sort_key``;
* ``merge`` combines two aligned arrays of *reduced* records elementwise —
  the accumulation step SUMMA needs between stages.  ``merge`` must be
  associative and commutative, and ``reduce`` must equal repeated ``merge``
  of the group's singleton records.

As with :class:`NumericSpec`, the scalar operators remain authoritative,
and the spec covers a product when ``compatible`` accepts the operand
dtypes; ``expand`` raises :class:`ValueError` on a value its records
cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "NoKernelError",
    "NumericSpec",
    "StructSpec",
    "Semiring",
    "ARITHMETIC",
    "BOOLEAN",
    "MIN_PLUS",
    "MAX_MIN",
    "MAX_TIMES",
    "COUNTING",
]


class NoKernelError(TypeError):
    """A semiring product whose operand value dtypes no spec of the
    semiring covers: there is no vectorized kernel to run it."""


@dataclass(frozen=True)
class NumericSpec:
    """Declarative vectorized form of a semiring over a NumPy dtype.

    Attributes
    ----------
    dtype:
        Canonical accumulator dtype; operand value dtypes must be castable
        to it (under ``casting``) for the spec to cover a product.
    add:
        Binary ufunc supporting ``reduceat`` (``np.add``, ``np.minimum``,
        ``np.maximum``, ``np.logical_or``, ...).
    multiply:
        Vectorized combine of two equal-length value arrays.
    casting:
        NumPy casting rule for the eligibility check; ``"unsafe"`` means
        the semiring never reads the stored values (e.g. COUNTING).
    """

    dtype: Any
    add: np.ufunc
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    casting: str = "same_kind"

    def compatible(self, *dtypes: Any) -> bool:
        """Whether value arrays of the given dtypes can use the fast path."""
        spec_dt = np.dtype(self.dtype)
        for dt in dtypes:
            dt = np.dtype(dt)
            if dt == object:
                return False
            # bool arithmetic saturates under NumPy ufuncs (True + True is
            # True), which would diverge from the scalar path; only a bool
            # spec (or a value-ignoring one) may accept bool operands
            if (dt.kind == "b" and spec_dt.kind != "b"
                    and self.casting != "unsafe"):
                return False
            if not np.can_cast(dt, spec_dt, casting=self.casting):
                return False
        return True


@dataclass(frozen=True)
class StructSpec:
    """Declarative vectorized form of a semiring whose values are
    fixed-width multi-column records (see the module docstring).

    Attributes
    ----------
    dtype:
        Structured record dtype of reduced values (e.g. ``count`` plus
        packed seed columns for ``CommonKmers``).
    expand:
        ``(a_vals, b_vals) -> records`` — one record per partial product.
    reduce:
        ``(sorted_records, group_starts, group_sizes) -> records`` — fold
        each group of an ``expand`` stream sorted by (coordinate,
        ``sort_key``) into one record.
    merge:
        ``(x_records, y_records) -> records`` — elementwise, associative,
        commutative combine of two aligned arrays of reduced records.
    sort_key:
        ``records -> int64 array`` giving the canonical within-group order
        ``reduce`` expects.
    operand_dtype:
        Dtype the operand value arrays must be castable to (under
        ``"same_kind"``) for the spec to cover a product.
    """

    dtype: Any
    expand: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reduce: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    merge: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sort_key: Callable[[np.ndarray], np.ndarray]
    operand_dtype: Any = np.int64

    def compatible(self, *dtypes: Any) -> bool:
        """Whether operand value arrays of the given dtypes can use the
        struct fast path."""
        target = np.dtype(self.operand_dtype)
        for dt in dtypes:
            dt = np.dtype(dt)
            if dt == object or dt.kind == "b" or dt.names is not None:
                return False
            if not np.can_cast(dt, target, casting="same_kind"):
                return False
        return True

    def is_reduced(self, dtype: Any) -> bool:
        """Whether ``dtype`` is this spec's reduced record dtype (i.e. the
        values are already struct columns that ``merge`` can combine)."""
        return np.dtype(dtype) == np.dtype(self.dtype)


@dataclass(frozen=True)
class Semiring:
    """A semiring ``(add, multiply)`` with optional mapping of raw matrix
    values into the multiplication domain.

    Attributes
    ----------
    name:
        Identifier for diagnostics.
    add:
        Associative, commutative fold of two partial products.
    multiply:
        Combine ``a_val`` (from the left matrix) and ``b_val`` (from the
        right matrix) into a partial product.
    zero:
        The additive identity *for numeric semirings*; ``None`` means the
        semiring has no materialised zero (PASTIS's positional semirings) —
        SpGEMM then seeds each accumulator with the first partial product.
    numeric:
        Optional :class:`NumericSpec` enabling the vectorized kernels (see
        the module docstring for the contract).
    struct:
        Optional :class:`StructSpec` enabling the vectorized expand-reduce
        kernels for multi-column record values.  Checked after ``numeric``.
    """

    name: str
    add: Callable[[Any, Any], Any]
    multiply: Callable[[Any, Any], Any]
    zero: Any = None
    numeric: NumericSpec | None = field(default=None, compare=False)
    struct: "StructSpec | None" = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"


#: Standard (+, *) arithmetic — SpGEMM over it is the ordinary matrix product.
ARITHMETIC = Semiring(
    "arithmetic", lambda a, b: a + b, lambda a, b: a * b, 0,
    numeric=NumericSpec(np.float64, np.add, np.multiply),
)

#: (or, and) — pattern multiplication.  The spec covers only genuinely
#: boolean value arrays: int values would need the scalar operators'
#: truthiness semantics, which only the reference kernel runs.
BOOLEAN = Semiring(
    "boolean", lambda a, b: a or b, lambda a, b: a and b, False,
    numeric=NumericSpec(np.bool_, np.logical_or, np.logical_and),
)

#: (min, +) — shortest paths.
MIN_PLUS = Semiring(
    "min_plus", min, lambda a, b: a + b, None,
    numeric=NumericSpec(np.float64, np.minimum, np.add),
)

#: (max, min) — bottleneck paths.
MAX_MIN = Semiring(
    "max_min", max, min, None,
    numeric=NumericSpec(np.float64, np.maximum, np.minimum),
)

#: (max, *) — most-reliable paths over non-negative weights.
MAX_TIMES = Semiring(
    "max_times", max, lambda a, b: a * b, None,
    numeric=NumericSpec(np.float64, np.maximum, np.multiply),
)

#: Count common nonzeros regardless of stored values: multiply ↦ 1, add ↦ +.
#: With A holding k-mer positions, ``A Aᵀ`` over COUNTING gives the common
#: k-mer count of every sequence pair (the paper's exact matching before
#: positions are tracked).  ``casting="unsafe"`` because the values are
#: never read.
COUNTING = Semiring(
    "counting", lambda a, b: a + b, lambda a, b: 1, 0,
    numeric=NumericSpec(
        np.int64, np.add,
        lambda av, bv: np.ones(len(av), dtype=np.int64),
        casting="unsafe",
    ),
)
