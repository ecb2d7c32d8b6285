"""Tests for ``repro cache fsck`` — the operator-facing recovery tool.

One test shells out to ``python -m repro.cli cache fsck <db>`` so the
documented command line (also exposed as ``make fsck``) is exercised
verbatim, not just the in-process entry point.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.persist.cachefile import PersistentCache
from repro.persist.database import CacheDatabase, QUARANTINE_DIR
from repro.persist.framing import PREAMBLE
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.testing.faultfs import flip_byte, truncate_file
from repro.vm.engine import VM_VERSION
from repro.workloads.harness import run_vm

from tests.test_cli import host_value
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


class TestRemovedDaemonEntryPoints:
    """The cache-server daemon's two entry points were removed.  Each
    old command line ends in one stderr line that names the removal and
    points to ``--shared-store DIR``: exit 1, no traceback, and nothing
    created, neither the store nor a ``daemon:`` directory."""

    @pytest.mark.parametrize(
        "argv",
        [("run", "gui", "gvim", "startup", "--pcache", "D",
          "--shared-store", "daemon://S"),
         ("prewarm", "--pcache", "D", "--corpus", "tiny",
          "--shared-store", "daemon://S"),
         ("cache", "serve", "S"),
         ("cache", "serve", "S", "--detach")],
        ids=["run-daemon-store", "prewarm-daemon-store", "cache-serve",
             "cache-serve-detach"],
    )
    def test_one_line_exit_one_nothing_created(self, tmp_path, argv):
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        done = subprocess.run(
            [sys.executable, "-m", "repro"] + list(argv),
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert "removed" in done.stderr
        assert "--shared-store DIR" in done.stderr
        assert done.stdout == ""
        assert os.listdir(tmp_path) == []


def tree_bytes(directory: str) -> dict:
    """Every file under ``directory``: relative path -> contents."""
    files = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


class TestCacheGcErrors:
    def test_negative_max_bytes_is_a_usage_error(self, tmp_path, capsys):
        """A negative ``--max-bytes`` is refused before the store is
        touched; only ``0`` means "evict every body"."""
        store = SharedBodyStore(str(tmp_path / "store"), VM_VERSION)
        store.publish({"%02x" % i + "ab" * 31: b"body-%d" % i
                       for i in range(4)})
        before = tree_bytes(store.directory)
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", store.directory, "--max-bytes", "-1"])
        assert excinfo.value.code == 2
        assert "--max-bytes" in capsys.readouterr().err
        assert tree_bytes(store.directory) == before
        assert store.total_entries() == 4


class TestBenchErrors:
    """Bad ``repro bench`` arguments end in one stderr line before any
    family runs, and an interrupted results write keeps the old file."""

    @pytest.fixture
    def no_family_runs(self, monkeypatch):
        import repro.bench

        def refuse(*args, **kwargs):
            raise AssertionError("a bench family ran")

        monkeypatch.setattr(repro.bench, "run_wallclock", refuse)

    def test_zero_reps_is_a_usage_error(self, capsys, no_family_runs):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--reps", "0"])
        assert excinfo.value.code == 2
        assert "--reps" in capsys.readouterr().err

    def test_unwritable_out_fails_first(self, tmp_path, capsys,
                                        no_family_runs):
        out = TestDatabaseErrors.unwritable(tmp_path)
        code = main(["bench", "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1, err
        assert "error: cannot write results to %s" % out in err
        assert os.listdir(tmp_path) == ["blocker"]

    def test_interrupted_write_keeps_the_results_file(self, tmp_path,
                                                      monkeypatch):
        import repro.bench
        from repro.testing.faultfs import FaultPlan, FaultyStorage

        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"workloads": {
            "fig5a_gui": {"speedup_x": 2.5, "identical_results": True},
        }}))
        before = path.read_bytes()
        monkeypatch.setattr(
            repro.bench, "FileStorage",
            lambda: FaultyStorage(FaultPlan(fail_write_on_call=1)),
        )
        with pytest.raises(OSError):
            repro.bench.run_wallclock(str(tmp_path / "scratch"),
                                      families=(), out_path=str(path))
        assert path.read_bytes() == before


def _illegal_opcode(trace):
    trace.code = b"\xee" + trace.code[1:]


def _code_shorter_than_its_instructions(trace):
    trace.n_insts = len(trace.code) // 8 + 1


class TestUndecodableCode:
    """A cache file whose CRCs all hold but whose first trace does not
    decode is damage in ``code_pool``: fsck names it, and a run
    quarantines the file and completes JIT-only instead of ending in a
    ``DecodeError`` traceback."""

    @staticmethod
    def damaged_database(tmp_path, capsys, damage):
        directory = str(tmp_path / "db")
        assert main(["run", "gui", "gvim", "startup",
                     "--pcache", directory]) == 0
        capsys.readouterr()
        [entry] = CacheDatabase(directory).entries()
        path = os.path.join(directory, entry.filename)
        with open(path, "rb") as handle:
            cache = PersistentCache.from_bytes(handle.read())
        damage(cache.traces[0])
        with open(path, "wb") as handle:
            handle.write(cache.to_bytes())
        return directory, entry.filename

    @pytest.mark.parametrize(
        "damage", [_illegal_opcode, _code_shorter_than_its_instructions],
        ids=["illegal-opcode", "code-shorter-than-n_insts"],
    )
    def test_fsck_names_code_pool_and_run_degrades(self, tmp_path, capsys,
                                                   damage):
        directory, filename = self.damaged_database(tmp_path, capsys, damage)
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        [row] = [line for line in out.splitlines() if filename in line]
        assert "code_pool" in row

        code, out = run_cli(capsys, "run", "gui", "gvim", "startup",
                            "--pcache", directory)
        assert code == 0
        assert "traces from pcache:     0" in out
        assert host_value(out, "fallback_jit_only") == "True"
        assert (host_value(out, "degraded_reason")
                == "cache file quarantined at lookup")
        assert os.path.exists(
            os.path.join(directory, QUARANTINE_DIR, filename)
        )


def data_pool_middle(path: str) -> int:
    """The offset of the middle byte of a cache file's data pool."""
    with open(path, "rb") as handle:
        blob = handle.read()
    header_len = PREAMBLE.unpack_from(blob, 0)[3]
    header = json.loads(blob[PREAMBLE.size:PREAMBLE.size + header_len])
    start = PREAMBLE.size + header_len
    for name in ("directory", "code_pool"):
        start += header["sections"][name][0]
    return start + header["sections"]["data_pool"][0] // 2


class TestRunNamesTheDamage:
    """``repro run`` prints why a cache file was quarantined, not only
    that the run fell back to JIT-only."""

    def test_flipped_data_pool_byte_is_named(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        assert main(["run", "gui", "gvim", "startup",
                     "--pcache", directory]) == 0
        capsys.readouterr()
        [entry] = CacheDatabase(directory).entries()
        path = os.path.join(directory, entry.filename)
        flip_byte(path, data_pool_middle(path))

        code, out = run_cli(capsys, "run", "gui", "gvim", "startup",
                            "--pcache", directory)
        assert code == 0
        assert host_value(out, "fallback_jit_only") == "True"
        assert host_value(out, "cache_quarantined") == "1"
        [event] = [line for line in out.splitlines()
                   if line.startswith("storage event:")]
        assert entry.filename in event
        assert "damaged data_pool" in event
