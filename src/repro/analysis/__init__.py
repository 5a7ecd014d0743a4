"""SPMD correctness tooling: one static analyzer, and the runtime
checks it shares its finding codes with.

The pipeline's output rests on SPMD discipline — every rank executes the
identical collective sequence and every send meets its receive —
invariants the golden-obliviousness tests check only *after the fact*.
This package enforces them *before and during* the run, with one shared
vocabulary of finding codes (:mod:`repro.analysis.report`, rendered in
``docs/analysis.md``):

``repro.analysis.verify``
    The static analyzer, ``python -m repro.analysis.verify``.  One run
    builds a project index + call graph (``callgraph``), an
    interprocedural rank-taint fixpoint (``dataflow``) and the static
    communication schedule of every SPMD entry point (``schedule``)
    once, and runs every static checker over them: the per-file
    checkers (``filechecks`` — Python hot loops in vectorized kernels,
    duplicate p2p tags with module-constant resolution, broad excepts),
    the schedule checkers (collective-sequence uniformity across
    rank-tainted control flow at any helper depth, recv sites no send
    site matches by tag), and one ``# spmd: <code>-ok`` pragma audit
    over all of them.  Supports ``--format json`` and a
    committed-baseline diff mode.  Every static code names some fault
    no tier-1 run names (the tool x fault matrix,
    ``tests/test_verify.py``).

The runtime checks live in the communicator, not here: every
collective's exchange round of :class:`~repro.mpisim.backend.CommBackend`
compares the op names the ranks entered and raises a named-ranks
``[rank-divergent-collective]`` :class:`~repro.mpisim.backend.SpmdError`
instead of deadlocking or crossing values, always.  The runner's
teardown audit (:func:`repro.mpisim.mpcomm.teardown_audit`) runs on
every run that returns: an unmatched send raises a named error, with
no switch.

Submodules are imported lazily, so importing the package loads none of
the analyzer.
"""

from __future__ import annotations

__all__ = [
    "FINDING_CODES",
    "Finding",
    "verify_paths",
    "verify_source",
    "verify_sources",
]

_LAZY = {
    "FINDING_CODES": "report",
    "Finding": "report",
    "verify_paths": "verify",
    "verify_source": "verify",
    "verify_sources": "verify",
}


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(f".{modname}", __name__), name)
