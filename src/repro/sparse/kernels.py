"""Registry of local-SpGEMM execution kernels.

Mirrors the comm-backend registry (``repro.mpisim.backend``): every kernel
registers under a name with an availability requirement (the import name of
its backing package, ``None`` for pure numpy) and a *coverage* predicate
saying which (semiring, operand dtypes) combinations it may run.  The
differential conformance harness (``tests/kernelcheck.py``) sweeps every
registered kernel over its covered combinations against the scalar semiring
reference, so a future backend registers itself and inherits the full sweep
the way comm backends inherit ``test_comm_backends.py``.

``PastisConfig`` validation asks this module whether a delegated kernel's
backing package is importable, so a missing package surfaces as a named
``ConfigError`` at config time — never mid-SUMMA.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Any, Callable

from .coo import COOMatrix
from .csr import CSRMatrix
from .semiring import Semiring
from .spgemm import (
    delegation_covers,
    spgemm_coo,
    spgemm_graphblas,
    spgemm_hash,
    spgemm_scipy,
)

__all__ = [
    "KernelSpec",
    "DELEGATED_KERNELS",
    "available_kernels",
    "registered_kernels",
    "kernel_available",
    "kernel_requirement",
    "get_kernel",
    "register_kernel",
    "unregister_kernel",
]

#: Kernel names whose work runs in an external library; these are the names
#: ``PastisConfig.kernel`` accepts beyond the built-in formulations, and
#: each needs its backing package installed (``kernel_requirement``).
DELEGATED_KERNELS = ("scipy", "graphblas")

#: Import name -> pip-installable distribution name, for error messages.
_PACKAGE_NAMES = {"scipy": "scipy", "graphblas": "python-graphblas"}


@dataclass(frozen=True)
class KernelSpec:
    """One registered local-SpGEMM execution backend.

    Attributes
    ----------
    name:
        Registry key (and, for delegated kernels, the config knob value).
    fn:
        ``(a: CSRMatrix, b: CSRMatrix, semiring) -> COOMatrix``.
    covers:
        ``(semiring, a_dtype, b_dtype) -> bool`` — the combinations this
        kernel may run; the conformance sweep asserts exact agreement with
        the reference on every covered combination and skips the rest.
    requires:
        Import name of the backing package, ``None`` when the kernel is
        pure numpy/stdlib.
    """

    name: str
    fn: Callable[[CSRMatrix, CSRMatrix, Semiring], COOMatrix]
    covers: Callable[[Semiring, Any, Any], bool]
    requires: str | None = None


def _covers_all(semiring: Semiring, a_dtype, b_dtype) -> bool:
    return True


def _dispatch(a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> COOMatrix:
    """The in-repo ladder (:func:`~repro.sparse.spgemm.spgemm_coo`) on the
    registry's CSR operands."""
    return spgemm_coo(a.to_coo(), b.to_coo(), semiring)


def _covers_scipy(semiring: Semiring, a_dtype, b_dtype) -> bool:
    return delegation_covers(semiring, a_dtype, b_dtype, kernel="scipy")


def _covers_graphblas(semiring: Semiring, a_dtype, b_dtype) -> bool:
    return delegation_covers(semiring, a_dtype, b_dtype, kernel="graphblas")


_KERNELS: dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec) -> None:
    """Register (or replace) a kernel.  Registering is enough to put a
    backend under the conformance sweep — tests use this to prove that a
    deliberately broken kernel fails it."""
    _KERNELS[spec.name] = spec


def unregister_kernel(name: str) -> None:
    _KERNELS.pop(name, None)


register_kernel(KernelSpec("hash", spgemm_hash, _covers_all))
register_kernel(KernelSpec("dispatch", _dispatch, _covers_all))
register_kernel(
    KernelSpec("scipy", spgemm_scipy, _covers_scipy, requires="scipy")
)
register_kernel(
    KernelSpec("graphblas", spgemm_graphblas, _covers_graphblas,
               requires="graphblas")
)


def _package_present(module_name: str) -> bool:
    # per-call find_spec, no caching: tests stub absence by monkeypatching
    return importlib.util.find_spec(module_name) is not None


def registered_kernels() -> tuple[str, ...]:
    """Every registered kernel name, available or not."""
    return tuple(_KERNELS)


def available_kernels() -> tuple[str, ...]:
    """Registered kernels usable in this interpreter (same contract as
    ``repro.mpisim.backend.available_backends``)."""
    return tuple(
        name for name, spec in _KERNELS.items()
        if spec.requires is None or _package_present(spec.requires)
    )


def kernel_available(name: str) -> bool:
    spec = _KERNELS.get(name)
    if spec is None:
        return False
    return spec.requires is None or _package_present(spec.requires)


def kernel_requirement(name: str) -> str | None:
    """The pip-installable package a kernel needs (``None``: built in)."""
    spec = _KERNELS.get(name)
    if spec is None or spec.requires is None:
        return None
    return _PACKAGE_NAMES.get(spec.requires, spec.requires)


def get_kernel(name: str) -> KernelSpec:
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown spgemm kernel {name!r}; registered: "
            f"{', '.join(sorted(_KERNELS))}"
        ) from None
