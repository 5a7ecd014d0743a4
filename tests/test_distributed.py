"""Tests for the fully distributed pipeline — above all, the paper's claim
that results are oblivious to the process count."""

from unittest import mock

import numpy as np
import pytest

from repro.bio.generate import make_family, random_protein, scope_like
from repro.bio.sequences import DistributedIndex, SequenceStore
from repro.core.config import PastisConfig
from repro.core.distributed import (
    pastis_rank,
    run_pastis_distributed,
    store_to_fasta_bytes,
)
from repro.core.exchange import needed_ranges, start_exchange
from repro.core.pipeline import pastis_pipeline
from repro.mpisim import run_spmd
from repro.mpisim.grid import ProcessGrid
from repro.mpisim.tracing import CommTracer


@pytest.fixture(scope="module")
def data():
    return scope_like(
        n_families=4, members_per_family=(3, 4), length_range=(40, 70),
        divergence=0.15, seed=33,
    )


class TestFastaBytes:
    def test_roundtrip(self, data):
        from repro.bio.fasta import parse_fasta_text

        raw = store_to_fasta_bytes(data.store)
        recs = parse_fasta_text(raw.decode())
        assert [r.id for r in recs] == data.store.ids
        assert [r.sequence for r in recs] == [
            data.store.sequence(i) for i in range(len(data.store))
        ]


class TestExchange:
    def test_needed_ranges_cover_row_and_col(self):
        def fn(comm):
            grid = ProcessGrid.create(comm)
            return needed_ranges(grid, comm.rank, 100)

        out = run_spmd(9, fn)
        # P5 = grid (1, 2): rows 34-66, cols 67-99 (approx thirds)
        r5 = out[5]
        assert len(r5) == 2
        assert r5[0][0] == 33 or r5[0][0] == 34  # row block of 100/3

    def test_exchange_delivers_all_needed(self, data):
        fasta = store_to_fasta_bytes(data.store)

        def fn(comm):
            from repro.bio.fasta import chunk_boundaries, read_fasta_chunk

            grid = ProcessGrid.create(comm)
            s, e = chunk_boundaries(len(fasta), comm.size)[comm.rank]
            local = SequenceStore.from_records(
                read_fasta_chunk(fasta, s, e)
            )
            counts = comm.allgather(len(local))
            index = DistributedIndex.from_counts(counts)
            ex = start_exchange(comm, grid, index, local, index.total)
            cache = ex.finish()
            for lo, hi in needed_ranges(grid, comm.rank, index.total):
                for g in range(lo, hi):
                    assert g in cache
            return len(cache)

        out = run_spmd(9, fn)
        assert all(c > 0 for c in out)

    def test_exchanged_content_correct(self, data):
        fasta = store_to_fasta_bytes(data.store)

        def fn(comm):
            from repro.bio.fasta import chunk_boundaries, read_fasta_chunk

            grid = ProcessGrid.create(comm)
            s, e = chunk_boundaries(len(fasta), comm.size)[comm.rank]
            local = SequenceStore.from_records(
                read_fasta_chunk(fasta, s, e)
            )
            counts = comm.allgather(len(local))
            index = DistributedIndex.from_counts(counts)
            ex = start_exchange(comm, grid, index, local, index.total)
            cache = ex.finish()
            return {g: bytes(v.tobytes()) for g, v in cache.items()}

        out = run_spmd(4, fn)
        for cache in out:
            for g, blob in cache.items():
                assert blob == data.store.encoded(g).tobytes()


class TestProcessObliviousness:
    """Section V: "The connections found in the PSG are oblivious to the
    number of processes used to parallelize PASTIS."""

    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_exact_kmers(self, data, p):
        cfg = PastisConfig(k=4, substitutes=0, align_mode="xd")
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=p)
        assert got.edge_set() == ref.edge_set()
        assert np.allclose(np.sort(got.weights), np.sort(ref.weights))

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_substitute_kmers(self, data, p):
        cfg = PastisConfig(k=4, substitutes=4, align_mode="xd")
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=p)
        assert got.edge_set() == ref.edge_set()
        assert np.allclose(np.sort(got.weights), np.sort(ref.weights))

    def test_sw_mode(self, data):
        cfg = PastisConfig(k=4, substitutes=0, align_mode="sw")
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        assert got.edge_set() == ref.edge_set()

    def test_ck_threshold_distributed(self, data):
        cfg = PastisConfig(k=4, substitutes=0).default_ck()
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        assert got.edge_set() == ref.edge_set()

    def test_ns_weighting_distributed(self, data):
        cfg = PastisConfig(k=4, substitutes=0, weight="ns")
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        assert got.edge_set() == ref.edge_set()
        assert np.allclose(np.sort(got.weights), np.sort(ref.weights))

    @pytest.mark.parametrize("weight,expect_traceback",
                             [("ani", True), ("ns", False)])
    def test_align_stage_traceback_flag(self, data, monkeypatch, rank_log,
                                        weight, expect_traceback):
        """Regression: every rank's align stage must run score-only under
        NS weighting — a traceback was hardcoded before, contradicting
        "NS ... cheaper because no traceback is needed"."""
        import repro.core.distributed as dist

        real = dist.align_batch

        def recording(tasks, *args, **kwargs):
            rank_log.append(kwargs["traceback"])
            return real(tasks, *args, **kwargs)

        # patched before the ranks fork, so every rank records
        monkeypatch.setattr(dist, "align_batch", recording)
        run_pastis_distributed(
            data.store, PastisConfig(k=4, weight=weight), nranks=4,
        )
        seen = rank_log.read()
        assert len(seen) == 4  # one batched call per rank (Fig. 11)
        assert seen == [expect_traceback] * 4


def _edge_list(graph) -> list[tuple[int, int, float]]:
    return sorted(
        zip(graph.ri.tolist(), graph.rj.tolist(), graph.weights.tolist())
    )


class TestDistributedKernels:
    """The count SUMMA path, with seeds joined after CK, must produce the
    edge list of the object-semiring oracle on every grid, with and
    without substitutes."""

    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("subs", [0, 4])
    def test_pipeline_equals_semiring_reference(self, data, p, subs,
                                                oracle_graph):
        cfg = PastisConfig(k=4, substitutes=subs)
        ref = oracle_graph(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=p)
        assert _edge_list(got) == _edge_list(ref)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_ambiguity_code_keeps_every_block_numeric(self, data, p,
                                                      oracle_graph,
                                                      rank_log):
        """One ``X`` makes some AS hits negative (BLOSUM62 scores X
        against A/S/T above X against X); every block product must still
        run on int64 values — packed hits in ``AS``, counts in ``B`` — and
        the graph equal the oracle's."""
        import sys

        seqs = [data.store.sequence(i) for i in range(len(data.store))]
        seqs[3] = seqs[3][:10] + "X" + seqs[3][11:]
        store = SequenceStore(seqs, data.store.ids)
        cfg = PastisConfig(k=4, substitutes=4)
        summa_module = sys.modules["repro.sparse.summa"]
        real = summa_module.spgemm_coo

        def recording(a, b, semiring):
            out = real(a, b, semiring)
            rank_log.append((semiring.name, out.vals.dtype))
            return out

        with mock.patch.object(summa_module, "spgemm_coo", recording):
            got = run_pastis_distributed(store, cfg, nranks=p)
        products = set(rank_log.read())
        assert products == {("pastis_as_numeric", np.dtype(np.int64)),
                            ("counting", np.dtype(np.int64))}
        assert _edge_list(got) == _edge_list(oracle_graph(store, cfg))

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_substitute_injection_through_summa(self, data, p):
        """The substitute path with an externally supplied ``S``
        (``s_triples`` is not None) through SUMMA on counts must match
        the single-process semiring reference fed the same triples,
        across process counts."""
        from repro.core.overlap import build_a_triples, build_s_triples
        from semiring_oracle import find_candidate_pairs_semiring
        from repro.align.batch import align_batch
        from repro.core.graph import SimilarityGraph
        from repro.core.pipeline import (
            align_kwargs,
            edges_from_alignments,
            tasks_from_pairs,
        )

        cfg = PastisConfig(k=4, substitutes=3)
        _, cols, _ = build_a_triples(data.store, cfg.k)
        present = np.unique(cols)
        s_triples = build_s_triples(
            present, cfg.k, cfg.substitutes, cfg.scoring,
            restrict_to=present,
        )
        pairs = find_candidate_pairs_semiring(data.store, cfg, s_triples)
        tasks = tasks_from_pairs(pairs, data.store.encoded)
        results = align_batch(tasks, **align_kwargs(cfg))
        edges = edges_from_alignments(zip(tasks, results), cfg)
        ref = SimilarityGraph.from_edges(len(data.store), edges)
        got = run_pastis_distributed(
            data.store, cfg, nranks=p, s_triples=s_triples
        )
        assert _edge_list(got) == _edge_list(ref)


#: The fixed dissection schema: identical keys on every variant, so
#: Fig.-15-style consumers can index any component without KeyError.
TIMING_COMPONENTS = ("fasta", "form A", "tr. A", "form S", "AS", "(AS)AT",
                     "sym.", "wait", "rebal.", "align")


class TestMeta:
    def test_timings_have_paper_components(self, data):
        cfg = PastisConfig(k=4, substitutes=4)
        g = run_pastis_distributed(data.store, cfg, nranks=4)
        for t in g.meta["rank_timings"]:
            assert tuple(t.keys()) == TIMING_COMPONENTS

    def test_exact_mode_emits_zero_s_components(self, data):
        """Regression: the exact-match branch used to omit the form S /
        AS / sym. components entirely, so the dissection schema differed
        between variants and consumers KeyError'd on exact runs."""
        cfg = PastisConfig(k=4, substitutes=0)
        g = run_pastis_distributed(data.store, cfg, nranks=4)
        for t in g.meta["rank_timings"]:
            assert tuple(t.keys()) == TIMING_COMPONENTS
            assert t["form S"] == 0.0
            assert t["AS"] == 0.0
            assert t["sym."] == 0.0

    def test_alignment_counts_match_candidates(self, data):
        cfg = PastisConfig(k=4, substitutes=0)
        g = run_pastis_distributed(data.store, cfg, nranks=4)
        assert g.meta["aligned_pairs"] == g.meta["candidate_pairs"]
        ref = pastis_pipeline(data.store, cfg)
        assert g.meta["aligned_pairs"] == ref.meta["aligned_pairs"]

    def test_tracer_records_traffic(self, data):
        cfg = PastisConfig(k=4, substitutes=0)
        tracer = CommTracer()
        g = run_pastis_distributed(data.store, cfg, nranks=4, tracer=tracer)
        assert tracer.total_messages > 0
        kinds = tracer.bytes_by_kind()
        assert "alltoall" in kinds  # matrix distribution
        assert "p2p" in kinds       # sequence exchange + transpose
        # traced runs persist the α–β calibration and projected comm
        # seconds next to the alignment calibration
        cc = g.meta["commcost"]
        assert cc["traced_messages"] == tracer.total_messages
        assert cc["traced_bytes"] == tracer.total_bytes
        assert cc["predicted_comm_seconds"] > 0
        assert cc["calibration"]["backend"] == "mp"
        # total traffic grows with the rank count (the sequence
        # exchange's aggregate volume is 2n*sqrt(p) sequences)
        tracer9 = CommTracer()
        run_pastis_distributed(data.store, cfg, nranks=9, tracer=tracer9)
        assert tracer9.total_bytes > tracer.total_bytes


class TestCkThresholdParity:
    """Regression for the duplicated CK predicate: both pipelines now
    route through one shared ``ck_keep_mask`` helper, and the strict-``>``
    boundary must agree between them exactly."""

    def _counts(self, store, cfg):
        from repro.core.overlap import find_candidate_pairs

        return sorted(
            find_candidate_pairs(store, cfg).counts.tolist()
        )

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_boundary_value_parity(self, data, offset):
        """Set the threshold exactly at (and one below) an occurring
        count: pairs sharing exactly ``t`` k-mers must drop in *both*
        pipelines, pairs at ``t + 1`` must survive in both."""
        from dataclasses import replace

        base = PastisConfig(k=4, substitutes=0)
        counts = self._counts(data.store, base)
        t = counts[len(counts) // 2] + offset  # an occurring count / one below
        cfg = replace(base, common_kmer_threshold=t)
        ref = pastis_pipeline(data.store, cfg)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        assert got.edge_set() == ref.edge_set()
        expected = sum(1 for c in counts if c > t)
        assert ref.meta["aligned_pairs"] == expected
        assert got.meta["aligned_pairs"] == expected

    def test_mask_semantics(self):
        from repro.core.overlap import ck_keep_mask

        counts = np.array([0, 1, 2, 3])
        assert ck_keep_mask(counts, 1).tolist() == [
            False, False, True, True
        ]
        assert bool(ck_keep_mask(2, 2)) is False  # boundary: == t drops


class TestCountFirstTail:
    """The distributed tail is the single-process one: count block -> CK
    on the counts -> seeds -> ``CandidatePairs`` -> tasks.  At ``s = 0``
    the seed join sees the CK survivors and nothing else — before, every
    pre-CK candidate carried two seeds through ``B``."""

    def test_seeds_joined_for_ck_survivors_only(self, data, monkeypatch,
                                                rank_log):
        from repro.core import distributed

        cfg = PastisConfig(k=4, substitutes=0).default_ck()
        ref = pastis_pipeline(data.store, cfg)

        real = distributed.block_seeds

        def counting(left, right, rows, cols, swap):
            rank_log.append(len(rows))
            return real(left, right, rows, cols, swap)

        # patched before the ranks fork, so all four of them see it
        monkeypatch.setattr(distributed, "block_seeds", counting)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        assert sum(rank_log.read()) == got.meta["aligned_pairs"]
        assert _edge_list(got) == _edge_list(ref)
        assert got.meta["candidate_pairs"] == ref.meta["candidate_pairs"]
        assert got.meta["aligned_pairs"] == ref.meta["aligned_pairs"]
        assert got.meta["aligned_pairs"] < got.meta["candidate_pairs"]


class TestFormSOncePerGrid:
    """Every distinct k-mer of the input is expanded by exactly one rank,
    and ``S`` carries only columns that can match ``Aᵀ`` — before, each
    rank searched its own local k-mers, unrestricted, and the copies were
    thrown away after the redistribution."""

    def test_searches_partition_the_vocabulary(self, data, monkeypatch,
                                               rank_log):
        from repro.core import distributed, overlap

        cfg = PastisConfig(k=4, substitutes=4)
        ref = pastis_pipeline(data.store, cfg)
        _, kmers, _ = overlap.build_a_triples(data.store, cfg.k)
        vocab = np.unique(kmers)
        single = overlap.build_s_triples(
            vocab, cfg.k, cfg.substitutes, cfg.scoring, restrict_to=vocab
        )

        real_batch = overlap.substitute_kmers_batch
        real_build = distributed.build_s_triples

        def counting_batch(kmer_ids, *args, **kwargs):
            rank_log.append(("searched", np.asarray(kmer_ids)))
            return real_batch(kmer_ids, *args, **kwargs)

        def recording_build(*args, **kwargs):
            triples = real_build(*args, **kwargs)
            rank_log.append(("s_cols", triples[1]))
            return triples

        # patched before the ranks fork, so all four of them see it
        monkeypatch.setattr(overlap, "substitute_kmers_batch", counting_batch)
        monkeypatch.setattr(distributed, "build_s_triples", recording_build)
        got = run_pastis_distributed(data.store, cfg, nranks=4)
        records = rank_log.read()
        searched = [v for what, v in records if what == "searched"]
        s_cols = [v for what, v in records if what == "s_cols"]

        assert len(searched) == 4
        assert np.array_equal(np.sort(np.concatenate(searched)), vocab)
        assert np.isin(np.concatenate(s_cols), vocab).all()
        assert sum(len(c) for c in s_cols) == len(single[1])
        assert _edge_list(got) == _edge_list(ref)


class TestAlignRebalancing:
    """The align_balance="greedy" stage: byte-identical output, stable
    meta/timing schema, and shipped-task traffic visible to the tracer."""

    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("subs", [0, 4])
    def test_rebalanced_equals_off(self, data, p, subs):
        from dataclasses import replace

        cfg = PastisConfig(k=4, substitutes=subs)
        ref = run_pastis_distributed(data.store, cfg, nranks=p)
        got = run_pastis_distributed(
            data.store, replace(cfg, align_balance="greedy"), nranks=p
        )
        assert _edge_list(got) == _edge_list(ref)
        assert got.meta["aligned_pairs"] == ref.meta["aligned_pairs"]
        assert got.meta["candidate_pairs"] == ref.meta["candidate_pairs"]

    def test_rebalance_meta_and_timing(self, data):
        cfg = PastisConfig(k=4, substitutes=0, align_balance="greedy")
        g = run_pastis_distributed(data.store, cfg, nranks=4)
        bal = g.meta["align_balance"]
        assert bal["mode"] == "greedy"
        assert len(bal["pre_cells"]) == 4
        assert len(bal["post_cells"]) == 4
        # rebalancing conserves work, it only moves it
        assert sum(bal["pre_cells"]) == sum(bal["post_cells"])
        assert max(bal["post_cells"]) <= max(bal["pre_cells"])
        for t in g.meta["rank_timings"]:
            assert t["rebal."] >= 0.0

    def test_off_mode_meta(self, data):
        cfg = PastisConfig(k=4, substitutes=0)
        g = run_pastis_distributed(data.store, cfg, nranks=4)
        assert g.meta["align_balance"] == {"mode": "off"}
        for t in g.meta["rank_timings"]:
            assert t["rebal."] == 0.0

    def test_shipped_bytes_traced(self):
        # one dense family inside the first global-id block: on the 2x2
        # grid every family pair lands in rank 0's triangle, so the plan
        # has to ship (cells are deterministic — no wall-clock gate)
        rng = np.random.default_rng(9)
        seqs = make_family(12, 80, divergence=0.12, rng=rng)
        seqs += [random_protein(80, rng) for _ in range(12)]
        store = SequenceStore(seqs)
        cfg = PastisConfig(align_balance="greedy")
        tracer = CommTracer()
        g = run_pastis_distributed(store, cfg, nranks=4, tracer=tracer)
        bal = g.meta["align_balance"]
        assert set(bal) == {
            "mode", "pre_cells", "post_cells", "shipped_tasks",
            "aligned_cells", "align_seconds", "measured_cells_per_sec",
        }
        assert bal["shipped_tasks"] > 0
        assert max(bal["post_cells"]) * 2 <= max(bal["pre_cells"])
        # every planned cell is aligned where the plan put it
        assert sum(bal["aligned_cells"]) == sum(bal["post_cells"])
        assert tracer.bytes_by_kind()["rebal"] > 0
        assert tracer.messages_by_kind()["rebal"] > 0
        off = run_pastis_distributed(store, PastisConfig(), nranks=4)
        assert _edge_list(g) == _edge_list(off)


class TestSortBasedOverlap:
    """The overlap stage sorts and merges: no hash-based set operation
    (``np.intersect1d``, a bare ``np.unique``) runs on the pipeline path,
    at any rank count, exact or with substitutes."""

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("subs", [0, 2])
    def test_no_hash_set_ops(self, data, monkeypatch, p, subs):
        cfg = PastisConfig(k=4, substitutes=subs)
        ref = run_pastis_distributed(data.store, cfg, nranks=p)
        real_unique = np.unique

        def intersect1d(*args, **kwargs):
            raise AssertionError("np.intersect1d on the pipeline path")

        def unique(ar, *args, **kwargs):
            if not any(kwargs.get(flag) for flag in (
                    "return_index", "return_inverse", "return_counts")):
                raise AssertionError("bare np.unique on the pipeline path")
            return real_unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "intersect1d", intersect1d)
        monkeypatch.setattr(np, "unique", unique)
        got = run_pastis_distributed(data.store, cfg, nranks=p)
        assert got.meta["candidate_pairs"] > 0
        assert _edge_list(got) == _edge_list(ref)
