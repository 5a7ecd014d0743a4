"""Tests for the command-line interface, including the full knob surface:
``--help`` must list every choice-valued config knob with all its choices,
and every choice must round-trip into a validated
:class:`~repro.core.config.PastisConfig`."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.bio.fasta import FastaError, write_fasta
from repro.bio.generate import scope_like
from repro.cli import build_parser, config_from_args, main, write_edges_tsv
from repro.core.config import (
    ALIGN_BALANCE_MODES,
    ALIGN_ENGINES,
    ALIGN_MODES,
    WEIGHTS,
    ConfigError,
    PastisConfig,
)
from repro.core.graph import SimilarityGraph


@pytest.fixture
def fasta_file(tmp_path):
    data = scope_like(
        n_families=3, members_per_family=(3, 3), length_range=(40, 60),
        divergence=0.15, seed=5,
    )
    path = tmp_path / "in.fasta"
    write_fasta(
        path,
        [(data.store.ids[i], data.store.sequence(i))
         for i in range(len(data.store))],
    )
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["in.fa", "-o", "out.tsv"])
        assert args.k == 6
        assert args.substitutes == 0
        assert args.align == "xd"
        assert args.weight == "ani"
        assert args.ranks == 1

    def test_all_options(self):
        args = build_parser().parse_args(
            ["in.fa", "-o", "o.tsv", "--k", "4", "-s", "10",
             "--align", "sw", "--weight", "ns", "--ck", "2",
             "--ranks", "4", "--cluster", "c.tsv",
             "--align-engine", "python"]
        )
        assert args.k == 4
        assert args.substitutes == 10
        assert args.align == "sw"
        assert args.ck == 2
        assert args.cluster == "c.tsv"
        assert args.align_engine == "python"

    def test_align_engine_default_batched(self):
        args = build_parser().parse_args(["in.fa", "-o", "out.tsv"])
        assert args.align_engine == "batched"


#: flag -> (PastisConfig field, its choices) for every choice-valued knob
#: family
CHOICE_KNOBS = {
    "--align": ("align_mode", ALIGN_MODES),
    "--weight": ("weight", WEIGHTS),
    "--align-engine": ("align_engine", ALIGN_ENGINES),
    "--align-balance": ("align_balance", ALIGN_BALANCE_MODES),
}


class TestCliSurface:
    """The CLI is the documented entry point: its help must describe the
    whole config surface and every choice must reach the config object."""

    def test_help_lists_every_knob_with_choices(self):
        help_text = build_parser().format_help()
        flags = (
            "--k", "--substitutes", "--ck", "--xdrop", "--min-identity",
            "--min-coverage", "--ranks", "--cluster", "--inflation",
            "--output",
        ) + tuple(CHOICE_KNOBS)
        for flag in flags:
            assert flag in help_text, f"{flag} missing from --help"
        for flag, (_, choices) in CHOICE_KNOBS.items():
            for choice in choices:
                assert choice in help_text, (
                    f"choice {choice!r} of {flag} missing from --help"
                )

    @pytest.mark.parametrize("flag", sorted(CHOICE_KNOBS))
    def test_every_choice_roundtrips_into_config(self, flag):
        field, choices = CHOICE_KNOBS[flag]
        for choice in choices:
            args = build_parser().parse_args(
                ["in.fa", "-o", "o.tsv", flag, choice]
            )
            config = config_from_args(args)
            assert getattr(config, field) == choice

    def test_parser_choices_match_config_validation(self):
        """The parser's choices= are the registered values and the
        config's __post_init__ accepts every one (neither can drift)."""
        parser = build_parser()
        by_dest = {a.dest: a for a in parser._actions}
        for flag, (field, choices) in CHOICE_KNOBS.items():
            dest = flag.lstrip("-").replace("-", "_")
            assert tuple(by_dest[dest].choices) == choices
            for choice in choices:
                PastisConfig(**{field: choice})

    def test_numeric_knobs_roundtrip(self):
        args = build_parser().parse_args(
            ["in.fa", "-o", "o.tsv", "--k", "5", "--substitutes", "7",
             "--ck", "3", "--xdrop", "25", "--min-identity", "0.4",
             "--min-coverage", "0.8"]
        )
        config = config_from_args(args)
        assert config.k == 5
        assert config.substitutes == 7
        assert config.common_kmer_threshold == 3
        assert config.xdrop == 25
        assert config.min_identity == 0.4
        assert config.min_coverage == 0.8

    def test_invalid_choice_rejected_by_parser(self):
        for flags in (
            ["--align-balance", "magic"],
            # the deleted work stealer left no alias behind
            ["--align-balance", "steal"],
            ["--steal-factor", "2"],
            ["--steal-chunks", "4"],
            # the deleted mpi4py adapter left no value behind either
            ["--comm-backend", "mpi"],
            # the teardown audit runs in every run: no flag left
            ["--comm-sanitize"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(["in.fa", "-o", "o.tsv", *flags])
            assert exc_info.value.code == 2


class TestMain:
    def test_basic_run(self, fasta_file, tmp_path):
        out = tmp_path / "edges.tsv"
        rc = main([str(fasta_file), "-o", str(out), "--k", "4", "--quiet"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#id_a")
        assert len(lines) > 1
        for line in lines[1:]:
            a, b, w = line.split("\t")
            assert 0.0 < float(w) <= 1.0

    def test_distributed_matches_single(self, fasta_file, tmp_path):
        out1 = tmp_path / "e1.tsv"
        out4 = tmp_path / "e4.tsv"
        main([str(fasta_file), "-o", str(out1), "--k", "4", "--quiet"])
        main([str(fasta_file), "-o", str(out4), "--k", "4",
              "--ranks", "4", "--quiet"])
        assert sorted(out1.read_text().splitlines()) == sorted(
            out4.read_text().splitlines()
        )

    def test_align_engine_oblivious(self, fasta_file, tmp_path):
        out_b = tmp_path / "eb.tsv"
        out_p = tmp_path / "ep.tsv"
        main([str(fasta_file), "-o", str(out_b), "--k", "4", "--quiet",
              "--align-engine", "batched"])
        main([str(fasta_file), "-o", str(out_p), "--k", "4", "--quiet",
              "--align-engine", "python"])
        assert out_b.read_text() == out_p.read_text()

    def test_comm_backend_mp_oblivious(self, fasta_file, tmp_path):
        """The hidden ``--comm-backend mp`` changes no byte."""
        out_bare = tmp_path / "ebare.tsv"
        out_mp = tmp_path / "emp.tsv"
        main([str(fasta_file), "-o", str(out_bare), "--k", "4", "--quiet",
              "--ranks", "4"])
        main([str(fasta_file), "-o", str(out_mp), "--k", "4", "--quiet",
              "--ranks", "4", "--comm-backend", "mp"])
        assert out_bare.read_text() == out_mp.read_text()

    def test_retired_kernels_get_no_alias(self, monkeypatch):
        """The kernel knob is gone with every value it ever had: the
        parser refuses ``--kernel``, the config has no ``kernel`` field,
        and ``REPRO_KERNEL`` is not read at all."""
        monkeypatch.setenv("REPRO_KERNEL", "semiring")
        for retired in ("join", "numeric", "scipy", "graphblas", "bogus",
                        "struct", "semiring"):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(
                    ["in.fa", "-o", "o.tsv", "--kernel", retired]
                )
            assert exc_info.value.code == 2
            with pytest.raises(TypeError, match="kernel"):
                PastisConfig(kernel=retired)
        args = build_parser().parse_args(["in.fa", "-o", "o.tsv"])
        assert not hasattr(config_from_args(args), "kernel")
        assert "kernel" not in {f.name for f in fields(PastisConfig)}

    def test_comm_backend_is_hidden_and_inert(self):
        """One transport is left: ``--comm-backend`` is hidden, accepts
        ``mp`` only and sets nothing; the config has no ``comm_backend``
        field."""
        for retired in ("sim", "mpi", "bogus"):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(
                    ["in.fa", "-o", "o.tsv", "--comm-backend", retired]
                )
            assert exc_info.value.code == 2
        plain = build_parser().parse_args(["in.fa", "-o", "o.tsv"])
        flagged = build_parser().parse_args(
            ["in.fa", "-o", "o.tsv", "--comm-backend", "mp"]
        )
        assert config_from_args(flagged) == config_from_args(plain)
        assert "--comm-backend" not in build_parser().format_help()
        with pytest.raises(TypeError, match="comm_backend"):
            PastisConfig(comm_backend="mp")
        assert "comm_backend" not in {f.name for f in fields(PastisConfig)}

    def test_clustering_output(self, fasta_file, tmp_path):
        out = tmp_path / "edges.tsv"
        clu = tmp_path / "clusters.tsv"
        rc = main([str(fasta_file), "-o", str(out), "--k", "4",
                   "--cluster", str(clu), "--quiet"])
        assert rc == 0
        lines = clu.read_text().strip().splitlines()
        assert len(lines) == 10  # header + 9 sequences
        clusters = {line.split("\t")[1] for line in lines[1:]}
        assert len(clusters) == 3  # three families recovered

    def test_empty_input_fails(self, tmp_path):
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        rc = main([str(empty), "-o", str(tmp_path / "o.tsv"), "--quiet"])
        assert rc == 2

    def test_ns_weights_can_exceed_one(self, fasta_file, tmp_path):
        out = tmp_path / "edges.tsv"
        main([str(fasta_file), "-o", str(out), "--k", "4",
              "--weight", "ns", "--quiet"])
        ws = [float(l.split("\t")[2])
              for l in out.read_text().strip().splitlines()[1:]]
        assert any(w > 1.0 for w in ws)  # raw score / length for identicalish


class TestNamedErrors:
    """Bad configuration or input is an ``error: <message>`` line on
    stderr and exit code 2 — no traceback, nothing on stdout (the runs are
    *not* ``--quiet``), no output file, no rank spawned."""

    def _fails(self, argv, capsys, tmp_path):
        out = tmp_path / "edges.tsv"
        rc = main([*argv, "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()
        return captured.err

    @pytest.mark.parametrize("ranks", ["3", "0", "-4", "8"])
    def test_bad_rank_count(self, fasta_file, capsys, tmp_path, ranks):
        err = self._fails(
            [str(fasta_file), "--ranks", ranks], capsys, tmp_path
        )
        assert "perfect square" in err
        assert f"got {ranks}" in err

    def test_library_rejects_bad_rank_count_before_spawning(self):
        from repro.bio.sequences import SequenceStore
        from repro.core.distributed import run_pastis_distributed

        store = SequenceStore(["AVGDMKAVG", "AVGDMRAVG"])
        for nranks in (3, 0, -4):
            with pytest.raises(ConfigError, match=f"got {nranks}"):
                run_pastis_distributed(store, nranks=nranks)
        # a repeated id is the same named error at every rank count, from
        # the driver: whether both copies land in one rank's byte chunk
        # must not decide it
        dup = SequenceStore(["AVGDMKAVG"] * 8, ids=list("abcdefga"))
        messages = set()
        for nranks in (1, 4, 9):
            with pytest.raises(FastaError) as exc_info:
                run_pastis_distributed(dup, nranks=nranks)
            messages.add(str(exc_info.value))
        assert messages == {"duplicate sequence id 'a': records 1 and 8"}

    def test_duplicate_ids(self, capsys, tmp_path):
        fa = tmp_path / "dup.fa"
        fa.write_text(">a\nAVGDMK\n>c\nAVGDMR\n>a x\nAVGDMH\n")
        for ranks in ("1", "4", "9"):
            err = self._fails([str(fa), "--ranks", ranks], capsys, tmp_path)
            assert err == (
                "error: duplicate sequence id 'a': records 1 and 3\n"
            )

    @pytest.mark.parametrize("ranks", ["1", "4"])
    def test_unreadable_input(self, capsys, tmp_path, ranks):
        # a missing file, a directory, and bytes that are not ASCII text
        missing = tmp_path / "nope.fa"
        err = self._fails([str(missing), "--ranks", ranks], capsys, tmp_path)
        assert err == f"error: {missing}: No such file or directory\n"
        err = self._fails([str(tmp_path), "--ranks", ranks], capsys, tmp_path)
        assert err == f"error: {tmp_path}: Is a directory\n"
        latin = tmp_path / "latin.fa"
        latin.write_bytes(">a\nAVGDMK\n>b caf\xe9\nAVGDMR\n".encode("latin-1"))
        err = self._fails([str(latin), "--ranks", ranks], capsys, tmp_path)
        assert err == f"error: {latin}: not ASCII text (byte 0xe9)\n"

    @pytest.mark.parametrize("ranks", ["1", "4"])
    @pytest.mark.parametrize("flag", ["-o", "--cluster"])
    def test_unwritable_output_fails_before_the_run(
            self, fasta_file, capsys, tmp_path, monkeypatch, flag, ranks):
        # the pipeline must not run and then lose its result in open()
        def never(*_args, **_kwargs):
            raise AssertionError("pipeline ran before the output check")

        monkeypatch.setattr("repro.cli.run_pastis_distributed", never)
        gone = tmp_path / "no_such_dir"
        argv = [str(fasta_file), "--ranks", ranks, flag, str(gone / "x.tsv")]
        if flag == "-o":
            rc = main(argv)
        else:
            rc = main([*argv, "-o", str(tmp_path / "edges.tsv")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: {gone}: No such file or directory\n"
        assert not (tmp_path / "edges.tsv").exists()

    @pytest.mark.parametrize("residue", ["U", "O", "J", "-"])
    def test_invalid_residue_names_the_record(self, capsys, tmp_path,
                                              residue):
        fa = tmp_path / "bad.fa"
        fa.write_text(f">ok\nAVGDMK\n>sel1 desc\nAVG{residue}MK\n")
        err = self._fails([str(fa), "--ranks", "4"], capsys, tmp_path)
        assert "record 2 ('sel1')" in err
        assert repr(residue) in err

    @pytest.mark.parametrize("ranks", ["1", "4"])
    def test_empty_record_names_the_record(self, capsys, tmp_path, ranks):
        fa = tmp_path / "empty.fa"
        fa.write_text(">a\nMKVLAAG\n>b\n>c\nMKVLAAG\n")
        err = self._fails([str(fa), "--ranks", ranks], capsys, tmp_path)
        assert err == "error: record 2 ('b'): empty sequence\n"

    def test_overlong_sequence_names_the_record(self, capsys, tmp_path):
        """A sequence the CommonKmers seed pack cannot position is refused
        when the store is built, before any rank runs."""
        from repro.bio.sequences import MAX_SEQUENCE_LENGTH

        fa = tmp_path / "long.fa"
        fa.write_text(f">ok\nAVGDMK\n>giant\n{'A' * MAX_SEQUENCE_LENGTH}\n")
        err = self._fails([str(fa), "--ranks", "4"], capsys, tmp_path)
        assert "record 2 ('giant')" in err
        assert f"length {MAX_SEQUENCE_LENGTH}" in err

    @pytest.mark.parametrize("argv, message", [
        (["{fa}", "-o", "{fa}"], "input and -o name the same file"),
        (["{fa}", "-o", "{out}", "--cluster", "{out}"],
         "-o and --cluster name the same file"),
        (["{fa}", "-o", "{out}", "--cluster", "{fa}"],
         "input and --cluster name the same file"),
        # another name of the same file: a hard link (only samefile sees it)
        (["{fa}", "-o", "{out}", "--cluster", "{alias}"],
         "input and --cluster name the same file"),
    ])
    def test_outputs_never_overwrite_inputs(self, fasta_file, capsys,
                                            tmp_path, monkeypatch, argv,
                                            message):
        def never(*_args, **_kwargs):
            raise AssertionError("input read before the path check")

        monkeypatch.setattr("repro.cli.read_fasta", never)
        before = fasta_file.read_bytes()
        alias = tmp_path / "alias.fa"
        os.link(fasta_file, alias)
        out = tmp_path / "edges.tsv"
        rc = main([a.format(fa=fasta_file, out=out, alias=alias)
                   for a in argv])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {message}: ")
        assert len(captured.err.splitlines()) == 1
        assert fasta_file.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alias.fa", "in.fasta"]

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "k must be between 1 and 13"),
        (["--k", "14"], "k must be between 1 and 13"),
        (["-s", "-1"], "substitutes must be non-negative"),
        (["--ck", "-2"], "common_kmer_threshold must be non-negative"),
        (["--xdrop", "-5"], "xdrop must be non-negative"),
        (["--min-identity", "7"], "min_identity must be a fraction in [0, 1]"),
        (["--min-coverage", "-0.1"],
         "min_coverage must be a fraction in [0, 1]"),
    ])
    def test_out_of_range_knob(self, fasta_file, capsys, tmp_path, flags,
                               message):
        err = self._fails([str(fasta_file), *flags], capsys, tmp_path)
        assert message in err

    @pytest.mark.parametrize("inflation", ["nan", "inf", "0", "-1", "1.0"])
    def test_bad_inflation_fails_before_the_run(
            self, fasta_file, capsys, tmp_path, monkeypatch, inflation):
        def never(*_args, **_kwargs):
            raise AssertionError("pipeline ran before the inflation check")

        monkeypatch.setattr("repro.cli.run_pastis_distributed", never)
        clusters = tmp_path / "c.tsv"
        err = self._fails(
            [str(fasta_file), "--cluster", str(clusters),
             "--inflation", inflation], capsys, tmp_path)
        assert err == (
            "error: inflation must be a finite number > 1, "
            f"got {float(inflation)}\n"
        )
        assert not clusters.exists()

    def test_empty_input(self, capsys, tmp_path):
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        assert "no sequences" in self._fails([str(empty)], capsys, tmp_path)


class TestWriteEdges:
    def test_roundtrip_values(self, tmp_path):
        g = SimilarityGraph.from_edges(
            3, [(0, 1, 0.5), (1, 2, 0.75)], ids=["a", "b", "c"]
        )
        path = tmp_path / "e.tsv"
        n = write_edges_tsv(str(path), g)
        assert n == 2
        rows = path.read_text().strip().splitlines()[1:]
        parsed = {tuple(r.split("\t")[:2]): float(r.split("\t")[2])
                  for r in rows}
        assert parsed == {("a", "b"): 0.5, ("b", "c"): 0.75}

    def test_without_ids(self, tmp_path):
        g = SimilarityGraph.from_edges(2, [(0, 1, 1.0)])
        g.ids = None
        path = tmp_path / "e.tsv"
        write_edges_tsv(str(path), g)
        assert "0\t1\t" in path.read_text()


class TestStartup:
    """``import repro`` keeps NumPy's BLAS on the calling thread unless the
    caller chose otherwise: an idle OpenBLAS pool spins at start-up."""

    def _run(self, code, **env):
        src = Path(__file__).resolve().parents[1] / "src"
        base = {k: v for k, v in os.environ.items()
                if k != "OPENBLAS_NUM_THREADS"}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**base, "PYTHONPATH": str(src), **env},
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads in /proc")
    def test_no_blas_pool(self):
        code = "import repro, os; print(len(os.listdir('/proc/self/task')))"
        assert self._run(code) == "1"

    def test_caller_setting_wins(self):
        code = "import repro, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._run(code, OPENBLAS_NUM_THREADS="3") == "3"
