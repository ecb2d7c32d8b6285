"""Tests for the command-line interface."""

import pytest

from repro.cli import main

from tests.conftest import TINY_PROGRAM, image_from_asm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestList:
    def test_lists_all_suites(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for expected in ("164.gzip", "176.gcc", "gftp", "oracle"):
            assert expected in out


class TestRun:
    def test_native(self, capsys):
        code, out = run_cli(capsys, "run", "spec", "164.gzip", "train",
                            "--native")
        assert code == 0
        assert "exit status:  0" in out
        assert "cycles" in out

    def test_vm(self, capsys):
        code, out = run_cli(capsys, "run", "spec", "164.gzip", "train")
        assert code == 0
        assert "traces translated" in out
        assert "vm overhead fraction" in out

    def test_vm_with_tool(self, capsys):
        code, out = run_cli(capsys, "run", "spec", "164.gzip", "train",
                            "--tool", "bbcount")
        assert code == 0
        assert "analysis" in out

    def test_persistence_round_trip(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        run_cli(capsys, "run", "spec", "164.gzip", "train", "--pcache", db)
        code, out = run_cli(capsys, "run", "spec", "164.gzip", "train",
                            "--pcache", db)
        assert code == 0
        assert "traces translated:      0" in out

    def test_unknown_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "spec", "999.nope", "ref-1"])

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "nosuite", "x", "y"])

    def test_layout_seed(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        run_cli(capsys, "run", "gui", "gftp", "startup", "--pcache", db)
        code, out = run_cli(
            capsys, "run", "gui", "gftp", "startup", "--pcache", db,
            "--readonly", "--layout-seed", "5",
        )
        assert code == 0
        assert "'invalidated': " in out  # relocation caused invalidations

    def test_pic_flag(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        run_cli(capsys, "run", "gui", "gftp", "startup", "--pcache", db,
                "--pic")
        code, out = run_cli(
            capsys, "run", "gui", "gftp", "startup", "--pcache", db,
            "--pic", "--readonly", "--layout-seed", "5",
        )
        assert code == 0
        assert "traces translated:      0" in out


class TestTimeline:
    def test_renders(self, capsys):
        code, out = run_cli(capsys, "timeline", "spec", "164.gzip", "train",
                            "--width", "40")
        assert code == 0
        assert "translation events" in out
        assert "[" in out and "]" in out


class TestPcache:
    def test_list_empty(self, capsys, tmp_path):
        (tmp_path / "empty").mkdir()
        code, out = run_cli(capsys, "pcache", "list", str(tmp_path / "empty"))
        assert code == 0
        assert "empty database" in out

    def test_list_and_show(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        run_cli(capsys, "run", "spec", "164.gzip", "train", "--pcache", db)
        code, out = run_cli(capsys, "pcache", "list", db)
        assert code == 0
        assert "spec/164.gzip" in out
        code, out = run_cli(capsys, "pcache", "show", db)
        assert code == 0
        assert "code pool" in out
        assert "traces by image" in out

    def test_show_empty(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["pcache", "show", str(tmp_path / "none")])

    def test_show_bad_index(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        run_cli(capsys, "run", "spec", "164.gzip", "train", "--pcache", db)
        with pytest.raises(SystemExit):
            main(["pcache", "show", db, "--index", "7"])


class TestDisasm:
    def test_disassembles_image(self, capsys, tmp_path):
        image = image_from_asm(TINY_PROGRAM)
        path = str(tmp_path / "app.sbf")
        image.save(path)
        code, out = run_cli(capsys, "disasm", path)
        assert code == 0
        assert "movi" in out
        assert "syscall" in out

    def test_base_offset(self, capsys, tmp_path):
        image = image_from_asm(TINY_PROGRAM)
        path = str(tmp_path / "app.sbf")
        image.save(path)
        code, out = run_cli(capsys, "disasm", path, "--base", "0x400000")
        assert code == 0
        assert "0x00400000:" in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestShellSuiteCli:
    def test_run_shell_tool(self, capsys, tmp_path):
        db = str(tmp_path / "db")
        code, out = run_cli(capsys, "run", "shell", "ls", "run",
                            "--pcache", db)
        assert code == 0
        assert "traces translated" in out
        code, out = run_cli(capsys, "run", "shell", "cat", "run",
                            "--pcache", db, "--inter-app", "--readonly")
        assert code == 0
        assert "'cache_found': True" in out
