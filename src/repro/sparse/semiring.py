"""User-defined semirings (CombBLAS-style) with an optional numeric spec.

A semiring supplies the two binary operators used by SpGEMM: ``multiply``
combines one value of ``A`` with one value of ``B`` into a partial product,
and ``add`` folds partial products for the same output coordinate.  PASTIS
overloads both to thread k-mer positions through ``A Aᵀ`` and ``A S Aᵀ``
(paper Section IV-A/IV-C); this module provides the abstraction plus the
two bundled numeric semirings: ``ARITHMETIC`` and ``COUNTING``, the one
both ``B`` products of the overlap run on.

Numeric-semiring contract
-------------------------
A semiring may additionally declare a :class:`NumericSpec`, which lets the
SpGEMM kernels replace the per-element Python ``add``/``multiply`` dispatch
with whole-array NumPy operations (row-expansion + a stable radix
group-by + ``ufunc.reduceat``).  The spec must satisfy:

* ``add`` is a **binary ufunc** (``np.add``, ``np.minimum``, ...), or an
  object with a ufunc-style ``reduceat`` (the record fold of
  :mod:`repro.core.semirings`), whose ``reduceat`` over a contiguous group
  equals the left fold of the scalar ``add`` over the same elements in the
  same order;
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "NoKernelError",
    "NumericSpec",
    "Semiring",
    "ARITHMETIC",
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
        ``np.maximum``, ``np.logical_or``, ...), or any object with a
        ufunc-style ``reduceat(values, starts)``.
    multiply:
        Vectorized combine of two equal-length value arrays.
    casting:
        NumPy casting rule for the eligibility check; ``"unsafe"`` means
        the semiring never reads the stored values (e.g. COUNTING).
    """

    dtype: Any
    add: Any
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
        The additive identity, or ``None`` when the semiring has no
        materialised zero (e.g. a min fold) — SpGEMM then seeds each
        accumulator with the first partial product.
    numeric:
        Optional :class:`NumericSpec` enabling the vectorized kernels (see
        the module docstring for the contract).
    """

    name: str
    add: Callable[[Any, Any], Any]
    multiply: Callable[[Any, Any], Any]
    zero: Any = None
    numeric: NumericSpec | None = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"


#: Standard (+, *) arithmetic — SpGEMM over it is the ordinary matrix product.
ARITHMETIC = Semiring(
    "arithmetic", lambda a, b: a + b, lambda a, b: a * b, 0,
    numeric=NumericSpec(np.float64, np.add, np.multiply),
)

#: Count common nonzeros regardless of stored values: multiply ↦ 1, add ↦ +.
#: With A holding k-mer positions, ``A Aᵀ`` (or ``(A S) Aᵀ``) over COUNTING
#: gives the shared-k-mer count of every sequence pair — the ``B`` the CK
#: filter reads; seeds are joined afterwards, for the survivors only.
#: ``casting="unsafe"`` because the values are never read.
COUNTING = Semiring(
    "counting", lambda a, b: a + b, lambda a, b: 1, 0,
    numeric=NumericSpec(
        np.int64, np.add,
        lambda av, bv: np.ones(len(av), dtype=np.int64),
        casting="unsafe",
    ),
)
