"""Tests for ``repro cache fsck`` — the operator-facing recovery tool.

One test shells out to ``python -m repro.cli cache fsck <db>`` so the
documented command line (also exposed as ``make fsck``) is exercised
verbatim, not just the in-process entry point.
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.persist.database import CacheDatabase, QUARANTINE_DIR
from repro.persist.manager import PersistenceConfig
from repro.testing.faultfs import flip_byte, truncate_file
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload

pytestmark = pytest.mark.faultinject


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def seeded_directory(tmp_path):
    db = CacheDatabase(str(tmp_path / "db"))
    run_vm(mini_workload(), "a", persistence=PersistenceConfig(database=db))
    return db.directory, db.entries()[0].filename


class TestFsck:
    def test_clean_database_exits_zero(self, tmp_path, capsys):
        directory, filename = seeded_directory(tmp_path)
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 0
        assert "fsck: clean" in out
        assert filename in out

    def test_empty_database(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code, out = run_cli(capsys, "cache", "fsck", str(tmp_path / "empty"))
        assert code == 0
        assert "nothing to check" in out

    def test_corrupt_file_exits_one_and_names_the_section(
        self, tmp_path, capsys
    ):
        directory, filename = seeded_directory(tmp_path)
        path = os.path.join(directory, filename)
        # Land the flip deep in the file: pool damage, precise section.
        flip_byte(path, int(os.path.getsize(path) * 0.9))
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        assert "fsck: damage found" in out
        assert filename in out
        assert "corrupt" in out
        # Some real section is named in the report.
        assert any(
            section in out
            for section in ("header", "directory", "code_pool", "data_pool")
        )
        # Without --quarantine the file was left exactly where it was.
        assert os.path.exists(path)

    def test_quarantine_flag_moves_file_aside(self, tmp_path, capsys):
        directory, filename = seeded_directory(tmp_path)
        path = os.path.join(directory, filename)
        truncate_file(path, os.path.getsize(path) // 2)
        code, out = run_cli(capsys, "cache", "fsck", directory, "--quarantine")
        assert code == 1
        assert "quarantined: %s" % filename in out
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(directory, QUARANTINE_DIR, filename))
        # A second pass is healthy: the damage was contained (the only
        # entry is gone, so the database reads as empty and clean).
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 0

    def test_stale_tmp_reported(self, tmp_path, capsys):
        directory, _ = seeded_directory(tmp_path)
        with open(os.path.join(directory, "x.cache.tmp"), "wb") as handle:
            handle.write(b"partial")
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        assert "stale-tmp" in out

    def test_missing_indexed_file_reported(self, tmp_path, capsys):
        directory, filename = seeded_directory(tmp_path)
        os.unlink(os.path.join(directory, filename))
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        assert "missing" in out


class TestScriptEntryPoint:
    def test_documented_command_line(self, tmp_path):
        """The exact invocation from the docs and the Makefile:
        ``python -m repro.cli cache fsck <db>``."""
        directory, filename = seeded_directory(tmp_path)
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        command = [sys.executable, "-m", "repro.cli", "cache", "fsck", directory]

        clean = subprocess.run(
            command, capture_output=True, text=True, env=env
        )
        assert clean.returncode == 0, clean.stderr
        assert "fsck: clean" in clean.stdout

        flip_byte(os.path.join(directory, filename), 50)
        damaged = subprocess.run(
            command, capture_output=True, text=True, env=env
        )
        assert damaged.returncode == 1, damaged.stderr
        assert "fsck: damage found" in damaged.stdout


class TestDatabaseErrors:
    """Read-only commands never create a database, and a database that
    cannot be created ends the command with one stderr line, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [("cache", "fsck"), ("pcache", "list"), ("pcache", "show"),
         ("replay",), ("cache", "gc")],
        ids=["cache-fsck", "pcache-list", "pcache-show", "replay",
             "cache-gc"],
    )
    def test_missing_directory_is_an_error(self, tmp_path, argv):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv) + [str(missing)])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert str(missing) in message
        assert not missing.exists()

    def test_missing_directory_from_the_shell(self, tmp_path):
        missing = str(tmp_path / "missing")
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cache", "fsck", missing],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode != 0
        assert done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert not os.path.exists(missing)

    @staticmethod
    def unwritable(tmp_path) -> str:
        """A database path whose parent is a regular file (refused even
        to root, unlike a mode-bit probe)."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return str(blocker / "db")

    def test_run_unwritable_pcache(self, tmp_path):
        path = self.unwritable(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "spec", "164.gzip", "train", "--pcache", path])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "cannot open cache database" in message

    def test_prewarm_unwritable_pcache(self, tmp_path, capsys):
        path = self.unwritable(tmp_path)
        code = main(["prewarm", "--pcache", path, "--corpus", "tiny"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1, err
        assert "cannot open cache database" in err

    def test_run_unwritable_shared_store(self, tmp_path):
        db = tmp_path / "db"
        store = self.unwritable(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "spec", "164.gzip", "train", "--pcache", str(db),
                  "--shared-store", store])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "cannot open shared store %s" % store in message
        assert not db.exists()

    def test_prewarm_unwritable_shared_store(self, tmp_path, capsys):
        db = tmp_path / "db"
        store = self.unwritable(tmp_path)
        code = main(["prewarm", "--pcache", str(db), "--corpus", "tiny",
                     "--shared-store", store])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1, err
        assert "cannot open shared store %s" % store in err
        assert not db.exists()


class TestReplayLogErrors:
    """``repro replay DB --log NAME`` ends in one stderr line, exit 1,
    when NAME is missing or damaged; damage is still quarantined."""

    @staticmethod
    def recorded(tmp_path):
        from repro.replay.harness import record_session
        from repro.workloads.nondet import build_nondet_suite

        db = CacheDatabase(str(tmp_path / "db"))
        rec = record_session(build_nondet_suite()["dice"], "short",
                             database=db, suite="nondet")
        return db, rec.log_name

    def test_missing_log(self, tmp_path):
        db, _name = self.recorded(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", db.directory, "--log", "absent.pcrl"])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "absent.pcrl" in message

    def test_damaged_log_from_the_shell(self, tmp_path):
        db, name = self.recorded(tmp_path)
        path = os.path.join(db.replay_directory(), name)
        flip_byte(path, 40)
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "replay", db.directory,
             "--log", name],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr and name in done.stderr
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(
            db.directory, QUARANTINE_DIR, "replay", name
        ))


class TestCacheServeErrors:
    """``repro cache serve`` on a directory that cannot be created ends
    in one stderr line, exit 1; ``--status`` never creates state."""

    @pytest.mark.parametrize("detach", [False, True],
                             ids=["foreground", "detach"])
    def test_uncreatable_directory(self, tmp_path, capsys, detach):
        store = TestDatabaseErrors.unwritable(tmp_path)
        argv = ["cache", "serve", store] + (["--detach"] if detach else [])
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1, err
        assert "cannot serve %s" % store in err

    def test_status_on_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = main(["cache", "serve", str(missing), "--status"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1, err
        assert not missing.exists()
