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
    The static analyzer, ``python -m repro.analysis.verify [paths]``.
    One run parses each module once and runs the per-file checkers
    (``filechecks`` — Python hot loops in vectorized kernels, broad
    excepts) and one ``# spmd: <code>-ok`` pragma audit over them, and
    prints its findings as text.  Every static code names some fault no
    tier-1 run names (the tool x fault matrix, ``tests/test_verify.py``).

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

Nothing under ``src/`` imports this package, so importing it loads none
of the analyzer.
"""
