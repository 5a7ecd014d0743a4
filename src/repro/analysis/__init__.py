"""SPMD correctness tooling: one static analyzer, and the runtime
checks it shares its finding codes with.

The pipeline's output rests on SPMD discipline — every rank executes the
identical collective sequence and every send meets its receive —
invariants the golden-obliviousness tests check only *after the fact*.
The runtime names a breach in the run where it happens; this package
holds the static checks for the faults a run leaves unnamed, and the
one vocabulary of finding codes both use (:mod:`repro.analysis.report`,
rendered in ``docs/analysis.md``):

``repro.analysis.verify``
    The static analyzer, ``python -m repro.analysis.verify``.  One run
    parses the tree once into a project index (``index``) and runs the
    per-file checkers (``filechecks`` — Python hot loops in vectorized
    kernels, duplicate p2p tags with module-constant resolution, broad
    excepts) and one ``# spmd: <code>-ok`` pragma audit over all of
    them.  Supports ``--format json`` and a committed-baseline diff
    mode.  Every static code names some fault no tier-1 run names (the
    tool x fault matrix, ``tests/test_verify.py``).

The runtime checks live in the SPMD runtime, not here, with no switch:
every collective's exchange round of
:class:`~repro.mpisim.backend.CommBackend` compares the op names the
ranks entered and raises a named-ranks ``[rank-divergent-collective]``
:class:`~repro.mpisim.backend.SpmdError`; when a receive times out, the
runner builds the wait-for graph of every blocked rank
(:func:`repro.mpisim.mpcomm.diagnose_waits`) and names a deadlock across
different collectives (``[rank-divergent-collective]``) or through a
recv nothing was sent to (``[unmatched-recv]``); and the runner's
teardown audit (:func:`repro.mpisim.mpcomm.teardown_audit`) names an
unmatched send on every run that returns.

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
