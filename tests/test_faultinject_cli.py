"""Tests for ``repro cache fsck`` — the operator-facing recovery tool.

One test shells out to ``python -m repro.cli cache fsck <db>`` so the
documented command line (also exposed as ``make fsck``) is exercised
verbatim, not just the in-process entry point.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.persist.cachefile import CacheFileError, PersistentCache
from repro.persist.database import INDEX_NAME, CacheDatabase, QUARANTINE_DIR
from repro.persist.framing import PREAMBLE
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.testing.faultfs import flip_byte, truncate_file
from repro.vm.engine import VM_VERSION
from repro.workloads.harness import run_vm

from tests.test_cli import host_value
from tests.test_framing import legacy_pcc2
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
    """Removed entry points: the cache-server daemon's ``cache serve``
    and ``--shared-store daemon://DIR``, and ``prewarm``.  Each old
    command line, ``--help`` included, ends in one stderr line that
    names the removal and points to ``--shared-store DIR``: exit 1, no
    traceback, and nothing created, neither a database nor a store."""

    @pytest.mark.parametrize(
        "argv",
        [("run", "gui", "gvim", "startup", "--pcache", "D",
          "--shared-store", "daemon://S"),
         ("prewarm", "--pcache", "D", "--corpus", "tiny",
          "--shared-store", "daemon://S"),
         ("cache", "serve", "S"),
         ("cache", "serve", "S", "--detach"),
         ("prewarm",),
         ("prewarm", "--help"),
         ("prewarm", "--pcache", "D", "--jobs", "2", "--corpus", "tiny",
          "--shared-store", "S", "--verify", "--json")],
        ids=["run-daemon-store", "prewarm-daemon-store", "cache-serve",
             "cache-serve-detach", "prewarm", "prewarm-help",
             "prewarm-all-options"],
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
        if argv[0] == "prewarm":
            assert "repro run --pcache DIR --shared-store DIR" in done.stderr

    @pytest.mark.parametrize("argv", [("--help",), ("cache", "--help")],
                             ids=["repro-help", "cache-help"])
    def test_help_names_only_live_commands(self, tmp_path, argv):
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        done = subprocess.run(
            [sys.executable, "-m", "repro"] + list(argv),
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        words = set(re.findall(r"\w+", done.stdout))
        assert not words & {"prewarm", "serve"}, done.stdout
        assert ("fsck" if argv[0] == "cache" else "bench") in words


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

    def test_negative_warmup_is_a_usage_error(self, capsys, no_family_runs):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--warmup", "-1"])
        assert excinfo.value.code == 2
        assert "--warmup: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["-5", "0", "nan", "inf"])
    def test_gate_threshold_must_be_positive_and_finite(
        self, capsys, no_family_runs, threshold
    ):
        """A threshold of 0 or below passes every speedup, so ``--check``
        would pass whatever the families measured."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--family", "fig5a_gui", "--check",
                  "--check-threshold", threshold])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--check-threshold: must be positive and finite" in err

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
    return trace._replace(code=b"\xee" + trace.code[1:])


def _code_shorter_than_its_instructions(trace):
    # The data pool must still hold the longer body's modeled records.
    return trace._replace(uops=[trace.uops[0]] * (len(trace.code) // 8 + 1),
                          data_size=0)


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
        cache.traces[0] = damage(cache.traces[0])
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


LEGACY_REASON = "damaged header: unsupported format version 2 (legacy PCC2 file)"


def install_legacy_pcc2(path: str) -> None:
    """Replace an indexed cache file with the PCC2 fixture's bytes."""
    with open(path, "wb") as handle:
        handle.write(legacy_pcc2())


class TestPcacheShowUnreadable:
    """``repro pcache show`` on an indexed file it cannot read prints one
    stderr line naming the file and the damaged section (or the OS
    error) and exits 1; being read-only, it quarantines, moves and
    creates nothing."""

    @staticmethod
    def show(directory):
        before = sorted(os.listdir(directory))
        with pytest.raises(SystemExit) as excinfo:
            main(["pcache", "show", directory])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert sorted(os.listdir(directory)) == before
        assert not os.path.exists(os.path.join(directory, QUARANTINE_DIR))
        return message

    def test_damaged_file(self, tmp_path):
        directory, filename = seeded_directory(tmp_path)
        path = os.path.join(directory, filename)
        flip_byte(path, data_pool_middle(path))
        message = self.show(directory)
        assert message.startswith("error: cannot read %s" % path)
        assert "damaged data_pool: data_pool checksum mismatch" in message

    def test_legacy_pcc2_file(self, tmp_path):
        directory, filename = seeded_directory(tmp_path)
        path = os.path.join(directory, filename)
        install_legacy_pcc2(path)
        message = self.show(directory)
        assert message == "error: cannot read %s: %s" % (path, LEGACY_REASON)

    def test_missing_file(self, tmp_path):
        directory, filename = seeded_directory(tmp_path)
        os.unlink(os.path.join(directory, filename))
        message = self.show(directory)
        assert filename in message and "No such file" in message


class TestLegacyPcc2Database:
    """A database holding a PCC2 file: the file is a typed header error,
    ``cache fsck`` reports it, the next run quarantines it and runs
    JIT-only, and the run after that writes PCC3."""

    def test_quarantined_then_rewritten_as_pcc3(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        argv = ["run", "shell", "ls", "run", "--pcache", directory]
        assert main(argv) == 0
        capsys.readouterr()
        [entry] = CacheDatabase(directory).entries()
        path = os.path.join(directory, entry.filename)
        install_legacy_pcc2(path)

        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.load(path)
        assert excinfo.value.section == "header"

        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        [row] = [line for line in out.splitlines() if entry.filename in line]
        assert "corrupt" in row and "header" in row

        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert host_value(out, "fallback_jit_only") == "True"
        [event] = [line for line in out.splitlines()
                   if line.startswith("storage event:")]
        assert event == "storage event: quarantine %s: %s" % (
            entry.filename, LEGACY_REASON)
        assert os.path.exists(
            os.path.join(directory, QUARANTINE_DIR, entry.filename)
        )

        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert host_value(out, "written") == "True"
        with open(path, "rb") as handle:
            assert handle.read(4) == b"PCC3"
        assert PersistentCache.load(path).traces


class TestDamagedIndex:
    """A damaged ``index.json`` is recorded when the database opens and
    moved only by a write: ``pcache`` names it in one stderr line (exit
    1), ``cache fsck`` reports it and moves it only under
    ``--quarantine``, ``replay`` leaves it, ``run --readonly`` leaves it
    and names it in one storage event, and a writing ``run``
    quarantines it."""

    @staticmethod
    def damaged(tmp_path):
        directory = str(tmp_path / "db")
        assert main(["run", "shell", "ls", "run", "--pcache", directory]) == 0
        with open(os.path.join(directory, INDEX_NAME), "w") as handle:
            handle.write("garbage{")
        return directory

    @staticmethod
    def shell(*argv):
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env,
        )

    @pytest.mark.parametrize("command", ["list", "show"])
    def test_pcache_from_the_shell(self, tmp_path, capsys, command):
        directory = self.damaged(tmp_path)
        capsys.readouterr()
        before = tree_bytes(directory)
        done = self.shell("pcache", command, directory)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot read %s: corrupt index:"
                                      % os.path.join(directory, INDEX_NAME))
        assert done.stderr.count("\n") == 1, done.stderr
        assert tree_bytes(directory) == before

    def test_readonly_run_names_it_from_the_shell(self, tmp_path, capsys):
        """The read-only run saw an empty database: one storage event
        says why, and nothing moves."""
        directory = self.damaged(tmp_path)
        capsys.readouterr()
        before = tree_bytes(directory)
        done = self.shell("run", "shell", "ls", "run", "--pcache", directory,
                          "--readonly")
        assert done.returncode == 0, done.stderr
        [event] = [line for line in done.stdout.splitlines()
                   if line.startswith("storage event:")]
        assert event.startswith(
            "storage event: damaged %s: corrupt index:" % INDEX_NAME
        ), event
        assert tree_bytes(directory) == before

    def test_fsck_moves_it_only_under_quarantine(self, tmp_path, capsys):
        directory = self.damaged(tmp_path)
        capsys.readouterr()
        before = tree_bytes(directory)
        code, out = run_cli(capsys, "cache", "fsck", directory)
        assert code == 1
        [row] = [line for line in out.splitlines() if INDEX_NAME in line]
        assert "corrupt" in row and "corrupt index:" in row
        assert "fsck: damage found" in out
        assert tree_bytes(directory) == before

        code, out = run_cli(capsys, "cache", "fsck", directory, "--quarantine")
        assert code == 1
        assert "quarantined: %s" % INDEX_NAME in out
        assert not os.path.exists(os.path.join(directory, INDEX_NAME))
        with open(os.path.join(directory, QUARANTINE_DIR, INDEX_NAME)) as fh:
            assert fh.read() == "garbage{"

    def test_only_a_writing_run_moves_it(self, tmp_path, capsys):
        directory = self.damaged(tmp_path)
        capsys.readouterr()
        before = tree_bytes(directory)
        argv = ["run", "shell", "ls", "run", "--pcache", directory]
        assert main(argv + ["--readonly"]) == 0
        assert main(["replay", directory]) == 0
        assert tree_bytes(directory) == before
        # The read-only run names the damage it left in place.
        assert "storage event: damaged %s: corrupt index:" % INDEX_NAME in (
            capsys.readouterr().out
        )

        code, out = run_cli(capsys, *argv)
        assert code == 0
        [event] = [line for line in out.splitlines()
                   if line.startswith("storage event:")]
        assert event.startswith(
            "storage event: quarantine %s: corrupt index:" % INDEX_NAME
        )
        with open(os.path.join(directory, QUARANTINE_DIR, INDEX_NAME)) as fh:
            assert fh.read() == "garbage{"
        assert CacheDatabase(directory).entries()


def tree_listing(directory: str) -> list:
    """Every directory and file under ``directory``, as ``find`` lists
    them: relative paths, sorted."""
    paths = []
    for root, dirs, names in os.walk(directory):
        for name in dirs + names:
            paths.append(os.path.relpath(os.path.join(root, name), directory))
    return sorted(paths)


class TestReadOnlyStoreFsck:
    """``cache fsck`` on a shared store moves and creates nothing unless
    ``--quarantine`` asks it to: a corrupt ``registry.json`` is a row,
    and opening the store makes no pool for this VM."""

    @staticmethod
    def store_with_foreign_pool(tmp_path) -> str:
        """A store that holds only a pool keyed for another VM."""
        directory = str(tmp_path / "store")
        SharedBodyStore(directory, vm_version="0.0.1").publish(
            {"ab" + "0" * 62: b"body"}
        )
        return directory

    def test_fsck_creates_no_pool(self, tmp_path):
        directory = self.store_with_foreign_pool(tmp_path)
        before = tree_listing(directory)
        done = TestDamagedIndex.shell("cache", "fsck", directory)
        assert done.returncode == 0, done.stderr
        assert "stale-keytag" in done.stdout
        assert tree_listing(directory) == before

    def test_fsck_of_a_registry_only_store_creates_nothing(self, tmp_path):
        """A store that no run has published to holds only its
        registry: opening it to check makes no ``bodies/``."""
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "registry.json").write_text(
            json.dumps({"version": 1, "databases": []})
        )
        before = tree_listing(str(directory))
        done = TestDamagedIndex.shell("cache", "fsck", str(directory))
        assert done.returncode == 0, done.stderr
        assert "empty shared store" in done.stdout
        assert tree_listing(str(directory)) == before == ["registry.json"]

    def test_corrupt_registry_moves_only_under_quarantine(self, tmp_path):
        directory = self.store_with_foreign_pool(tmp_path)
        registry = os.path.join(directory, "registry.json")
        with open(registry, "w") as handle:
            handle.write("garbage{")
        before = tree_bytes(directory)
        listing = tree_listing(directory)
        done = TestDamagedIndex.shell("cache", "fsck", directory)
        assert done.returncode == 1, done.stderr
        [row] = [line for line in done.stdout.splitlines()
                 if "registry.json" in line]
        assert "corrupt" in row and "corrupt registry:" in row
        assert "fsck: damage found" in done.stdout
        assert tree_bytes(directory) == before
        assert tree_listing(directory) == listing

        done = TestDamagedIndex.shell("cache", "fsck", directory,
                                      "--quarantine")
        assert done.returncode == 1, done.stderr
        assert "quarantined: registry.json" in done.stdout
        assert not os.path.exists(registry)
        with open(os.path.join(directory, "quarantine",
                               "registry.json")) as handle:
            assert handle.read() == "garbage{"


class TestCacheGcDamagedRegistry:
    """``cache gc`` on a store whose ``registry.json`` is damaged says so
    and leaves the file for the next registration to move; what it
    sweeps is what an empty registry gives."""

    def test_gc_warns_and_leaves_the_registry(self, tmp_path, capsys):
        from tests.test_sharedstore import write_reference_index

        directory = str(tmp_path / "store")
        store = SharedBodyStore(directory, VM_VERSION)
        digest = "ab" + "0" * 62
        store.publish({digest: b"body"})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [digest])
        store.register_database(db_dir)
        registry = os.path.join(directory, "registry.json")
        with open(registry, "w") as handle:
            handle.write("garbage{")

        code, out = run_cli(capsys, "cache", "gc", directory, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["registry_damage"].startswith("corrupt registry: ")
        assert report["registered_databases"] == []
        assert report["swept_entries"] == 1

        code, out = run_cli(capsys, "cache", "gc", directory)
        assert code == 0
        [warning] = [line for line in out.splitlines()
                     if line.startswith("warning: damaged registry.json: ")]
        assert "corrupt registry: " in warning
        assert "registered databases:  0" in out
        with open(registry) as handle:
            assert handle.read() == "garbage{"
        assert not os.path.exists(os.path.join(directory, QUARANTINE_DIR))
