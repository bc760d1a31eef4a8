"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import revisiting_ledger


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_select_defaults(self):
        args = build_parser().parse_args(["select"])
        assert args.faults == 1
        assert args.quorum == "3f+1"


class TestCommands:
    def test_table_command(self, capsys):
        assert main(["table", "--id", "Table I"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "OpenBSD" in out

    def test_table_command_figure(self, capsys):
        assert main(["table", "--id", "Figure 3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_table_command_unknown_id(self, capsys):
        assert main(["table", "--id", "Table 99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "measured=" in out

    def test_experiments_markdown(self, capsys):
        assert main(["experiments", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Reproduction report")
        assert "### Table III" in out

    def test_select_command(self, capsys):
        assert main(["select", "--faults", "1", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "f=1" in out
        assert out.count("history=") == 3

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--runs", "5", "--horizon", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "single-exploit" in out
        assert "Set1" in out

    def test_simulate_engines_agree(self, capsys):
        assert main(["simulate", "--runs", "5", "--horizon", "2.0"]) == 0
        bitset_out = capsys.readouterr().out
        assert main(["--engine", "naive", "simulate", "--runs", "5", "--horizon", "2.0"]) == 0
        naive_out = capsys.readouterr().out
        assert bitset_out.replace("engine bitset", "") == naive_out.replace("engine naive", "")

    def test_sweep_command_text_output(self, capsys):
        assert main(["sweep", "--runs", "5", "--horizon", "2.0",
                     "--no-cache", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep: 3 cells")
        assert "cells from cache" in out

    def test_sweep_rejects_non_positive_workers(self, capsys):
        assert main(["sweep", "--runs", "5", "--workers", "0", "--no-cache"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sweep_rejects_unknown_os(self, capsys):
        assert main(["sweep", "--runs", "5", "--os", "BeOS", "--no-cache"]) == 2
        assert "unknown operating system" in capsys.readouterr().err

    def test_sweep_rejects_bad_grid_axis(self, capsys):
        assert main(["sweep", "--runs", "5", "--quorum-models", "9f+9",
                     "--no-cache"]) == 2
        assert "invalid grid" in capsys.readouterr().err

    def test_simulate_custom_configurations(self, capsys):
        assert main([
            "simulate", "--runs", "5", "--horizon", "2.0",
            "--homogeneous", "Windows2003", "--config", "Set2",
            "--os", "Debian,OpenBSD,Solaris",
            "--quorum-model", "2f+1", "--recovery-interval", "1.0",
            "--arrival", "aging", "--shape", "1.5", "--smart",
        ]) == 0
        out = capsys.readouterr().out
        assert "homogeneous (4 x Windows2003)" in out
        assert "Set2" in out
        assert "custom (Debian+OpenBSD+Solaris)" in out
        assert "aging arrivals" in out

    def test_simulate_json_output(self, capsys):
        import json

        assert main(["simulate", "--runs", "5", "--horizon", "2.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "bitset"
        assert len(payload["campaigns"]) == 3
        for campaign in payload["campaigns"]:
            assert 0.0 <= campaign["safety_violation_probability"] <= 1.0
            low, high = campaign["safety_violation_ci"]
            assert 0.0 <= low <= high <= 1.0

    def test_simulate_recovery_sweep(self, capsys):
        assert main([
            "simulate", "--runs", "5", "--horizon", "2.0",
            "--config", "Set1", "--recovery-sweep", "0.5,1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "Set1@no-recovery" in out
        assert "Set1@recovery=0.5" in out
        assert "Set1@recovery=1" in out

    def test_simulate_sweep_conflicts_with_interval(self, capsys):
        assert main([
            "simulate", "--recovery-sweep", "1.0", "--recovery-interval", "2.0",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_simulate_repeated_os_flags_make_separate_configurations(self, capsys):
        assert main([
            "simulate", "--runs", "5", "--horizon", "2.0",
            "--os", "Debian,OpenBSD", "--os", "RedHat,Solaris",
        ]) == 0
        out = capsys.readouterr().out
        assert "custom (Debian+OpenBSD)" in out
        assert "custom (RedHat+Solaris)" in out
        assert "custom (Debian+OpenBSD+RedHat+Solaris)" not in out

    @pytest.mark.parametrize("flags", [
        ["--runs", "0"],
        ["--rate", "-1"],
        ["--arrival", "aging", "--shape", "0"],
        ["--recovery-interval", "-1"],
        ["--recovery-sweep", "0"],
    ])
    def test_simulate_rejects_bad_campaign_parameters(self, capsys, flags):
        assert main(["simulate", "--runs", "5", "--horizon", "2.0", *flags]) == 2
        assert "invalid campaign" in capsys.readouterr().err

    def test_simulate_rejects_malformed_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--recovery-sweep", "abc"])
        assert "invalid interval list" in capsys.readouterr().err

    def test_simulate_rejects_unknown_os(self, capsys):
        assert main(["simulate", "--os", "Debbian,OpenBSD"]) == 2
        assert "unknown operating system 'Debbian'" in capsys.readouterr().err

    def test_simulate_rejects_empty_os_list(self, capsys):
        assert main(["simulate", "--os", ","]) == 2
        assert "no replicas" in capsys.readouterr().err

    def test_export_command(self, tmp_path, capsys):
        assert main(["export", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table_iii.csv").exists()
        assert (tmp_path / "figure_2.txt").exists()

    def test_feeds_command(self, tmp_path, capsys):
        assert main(["feeds", "--output", str(tmp_path)]) == 0
        xml_feeds = list(tmp_path.glob("*.xml"))
        assert xml_feeds
        assert (tmp_path / "nvdcve-all.json").exists()

    def test_feeds_option_reads_back_generated_feeds(self, tmp_path, capsys):
        """The --feeds option analyses an arbitrary directory of NVD XML feeds."""
        assert main(["feeds", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["--feeds", str(tmp_path), "table", "--id", "Table I"]) == 0
        out = capsys.readouterr().out
        assert "Solaris" in out

    def test_feeds_option_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--feeds", str(tmp_path), "tables"])


class TestIngestAndSnapshotCommands:
    """The incremental pipeline surfaced on the CLI (ingest + snapshot)."""

    @pytest.fixture(scope="class")
    def base_db(self, tmp_path_factory):
        """A database populated by `repro ingest` once per class (copied below)."""
        db_path = tmp_path_factory.mktemp("cli-ingest") / "base.db"
        assert main(["--db", str(db_path), "ingest"]) == 0
        return db_path

    @pytest.fixture()
    def ingested_db(self, base_db, tmp_path, capsys):
        """A private copy of the ingested database (tests mutate it)."""
        import shutil

        db_path = tmp_path / "data.db"
        shutil.copy(base_db, db_path)
        capsys.readouterr()
        return db_path

    def _write_delta(self, tmp_path, seed=42, **kwargs):
        from repro.synthetic import build_corpus, evolve_corpus

        delta = evolve_corpus(build_corpus(), fraction=0.005, seed=seed, **kwargs)
        return delta.write_feed(tmp_path / f"modified-{seed}.xml")

    def test_ingest_requires_db(self, capsys):
        assert main(["ingest"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_ingest_populates_and_commits(self, ingested_db, capsys):
        assert main(["--db", str(ingested_db), "snapshot", "list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#1 ")
        assert "parent=-" in out

    def test_full_reingest_into_populated_db_is_refused(self, ingested_db, capsys):
        assert main(["--db", str(ingested_db), "ingest"]) == 2
        assert "--delta" in capsys.readouterr().err

    def test_delta_ingest_commits_one_snapshot(self, ingested_db, tmp_path, capsys):
        feed = self._write_delta(tmp_path)
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "modified" in out and "#2" in out

    def test_delta_reapplication_is_a_noop(self, ingested_db, tmp_path, capsys):
        feed = self._write_delta(tmp_path)
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        capsys.readouterr()
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "~0 modified" in out  # second apply changed nothing
        capsys.readouterr()
        assert main(["--db", str(ingested_db), "snapshot", "list"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_snapshot_diff_defaults_to_parent_vs_head(self, ingested_db, tmp_path,
                                                      capsys):
        feed = self._write_delta(tmp_path)
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        capsys.readouterr()
        assert main(["--db", str(ingested_db), "snapshot", "diff", "--cves"]) == 0
        out = capsys.readouterr().out
        assert "snapshot #1" in out and "-> #2" in out
        assert "affected OSes:" in out
        assert "~ CVE-" in out

    def test_snapshot_diff_defaults_to_the_parent_on_a_revisiting_ledger(
        self, tmp_path, capsys
    ):
        db_path = tmp_path / "revisit.db"
        database, (first, second, _third) = revisiting_ledger(db_path)
        database.close()
        assert main(["--db", str(db_path), "snapshot", "diff", "--to", "2"]) == 0
        assert capsys.readouterr().out.startswith(
            f"snapshot #1 ({first.short_digest}) -> #2 ({second.short_digest})"
        )

    def test_snapshot_diff_on_rootless_head_fails(self, ingested_db, capsys):
        assert main(["--db", str(ingested_db), "snapshot", "diff"]) == 2
        assert "no parent" in capsys.readouterr().err

    def test_snapshot_checkout_round_trips(self, ingested_db, tmp_path, capsys):
        out_dir = tmp_path / "checkout"
        assert main(["--db", str(ingested_db), "snapshot", "checkout",
                     "--output", str(out_dir)]) == 0
        assert list(out_dir.glob("*.xml"))
        capsys.readouterr()
        # Re-ingesting the checkout reproduces the snapshot digest.
        verify = tmp_path / "verify.db"
        assert main(["--db", str(verify), "--feeds", str(out_dir), "ingest"]) == 0
        capsys.readouterr()
        from repro.db.database import VulnerabilityDatabase
        from repro.snapshots.store import SnapshotStore

        with VulnerabilityDatabase(ingested_db) as original, \
                VulnerabilityDatabase(verify) as copy:
            assert SnapshotStore(original).head().digest == \
                SnapshotStore(copy).head().digest

    def test_snapshot_drift_reports_table1_numbers(self, ingested_db, tmp_path,
                                                   capsys):
        feed = self._write_delta(tmp_path, rejections=2)
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        capsys.readouterr()
        assert main(["--db", str(ingested_db), "snapshot", "drift"]) == 0
        out = capsys.readouterr().out
        assert "SnapshotDrift" in out
        assert "#1 -> #2" in out

    def test_snapshot_commands_require_existing_db(self, tmp_path, capsys):
        missing = tmp_path / "nope.db"
        assert main(["--db", str(missing), "snapshot", "list"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_analyses_run_on_pinned_snapshot(self, ingested_db, tmp_path, capsys):
        feed = self._write_delta(tmp_path)
        assert main(["--db", str(ingested_db), "ingest", "--delta", str(feed)]) == 0
        capsys.readouterr()
        assert main(["--db", str(ingested_db), "--snapshot", "1",
                     "table", "--id", "Table I"]) == 0
        pinned = capsys.readouterr().out
        assert main(["table", "--id", "Table I"]) == 0
        synthetic = capsys.readouterr().out
        assert pinned == synthetic  # snapshot 1 is the untouched full corpus

    def test_sweep_json_embeds_dataset_digest(self, ingested_db, capsys):
        import json

        assert main(["--db", str(ingested_db), "sweep", "--runs", "4",
                     "--horizon", "1.0", "--os", "Debian,OpenBSD",
                     "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"]["source"] == "db"
        assert payload["dataset"]["snapshot_id"] == 1
        assert len(payload["dataset"]["digest"]) == 64
        assert payload["dataset"]["snapshot_digest"] == payload["dataset"]["digest"]
        for cell in payload["cells"]:
            assert len(cell["scope_digest"]) == 64

    def test_sweep_csv_embeds_digests(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--runs", "4", "--horizon", "1.0",
                     "--os", "Debian,OpenBSD", "--no-cache",
                     "--csv", str(csv_path)]) == 0
        header, first = csv_path.read_text(encoding="utf-8").splitlines()[:2]
        assert "corpus_digest" in header and "scope_digest" in header
        assert first.count(",") == header.count(",")


class TestSnapshotSelector:
    def test_all_digit_digest_prefix_falls_back_to_digest_lookup(self):
        from repro.cli import _resolve_snapshot
        from repro.db.database import VulnerabilityDatabase
        from repro.snapshots.store import SnapshotStore

        database = VulnerabilityDatabase()
        store = SnapshotStore(database)
        with database.connection:
            database.connection.execute(
                "INSERT INTO snapshot (digest, parent_digest, created, source,"
                " entry_count, added, modified, removed)"
                " VALUES ('123abc456def', NULL, '2011-06-27T00:00:00', 's',"
                " 0, 0, 0, 0)"
            )
        # "123" is all digits but names no ledger id -> digest-prefix match.
        assert _resolve_snapshot(store, "123").digest == "123abc456def"
        # A real ledger id still wins.
        assert _resolve_snapshot(store, "1").snapshot_id == 1

    def test_unknown_snapshot_selector_fails_cleanly(self, tmp_path, capsys):
        from repro.db.database import VulnerabilityDatabase
        from repro.snapshots.store import SnapshotStore
        from tests.conftest import make_entry

        db_path = tmp_path / "sel.db"
        with VulnerabilityDatabase(db_path) as database:
            database.register_os_catalog()
            database.insert_entry(make_entry())
            SnapshotStore(database).commit(source="seed")
        with pytest.raises(SystemExit) as exc_info:
            main(["--db", str(db_path), "--snapshot", "ffff", "tables"])
        assert "no snapshot" in str(exc_info.value)

    def test_db_option_does_not_create_stray_files(self, tmp_path):
        missing = tmp_path / "typo.db"
        with pytest.raises(SystemExit) as exc_info:
            main(["--db", str(missing), "tables"])
        assert "does not exist" in str(exc_info.value)
        assert not missing.exists()


class TestVersionFlag:
    def test_version_prints_package_version_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_wins_over_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version", "tables"])
        assert exc_info.value.code == 0


class TestCacheDirEnvironment:
    def test_repro_cache_dir_sets_the_sweep_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache")
        args = build_parser().parse_args(["sweep"])
        assert args.cache_dir == "/tmp/env-cache"

    def test_explicit_flag_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache")
        args = build_parser().parse_args(["sweep", "--cache-dir", "explicit"])
        assert args.cache_dir == "explicit"

    def test_default_without_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["sweep"])
        assert args.cache_dir == ".repro-cache"


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8142
        assert args.workers == 1
        assert args.cache_size == 256
        assert args.host == "127.0.0.1"

    def test_serve_rejects_bad_configuration(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "worker" in capsys.readouterr().err

    def test_serve_rejects_bad_port(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err

    def test_serve_missing_db_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "absent.db"
        assert main(["--db", str(missing), "serve"]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_serve_empty_feed_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["--feeds", str(tmp_path), "serve"]) == 2
        assert "no .xml feeds" in capsys.readouterr().err
