"""CLI gate behavior: exit codes, the text report, the one argument."""

import os

import pytest

from repro.analysis import main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)

BAD = "import random\nx = random.random()\n"
CLEAN = "import random\nrng = random.Random(42)\nx = rng.random()\n"


@pytest.fixture
def bad_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "bad.py"
    target.write_text(BAD)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "1 files analyzed: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_file, capsys):
        assert main([str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2:5: error [R1]" in out
        assert "x = random.random()" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestFormats:
    def test_text_summary_counts_by_rule(self, bad_file, capsys):
        main([str(bad_file)])
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "1 files analyzed: 1 finding (R1: 1)"


class TestUsage:
    def test_help_lists_only_paths(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "PATH" in out
        options = {word for word in out.split() if word.startswith("-")}
        assert options <= {"-h", "-h,", "--help"}

    def test_unknown_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--format", "json"])
        assert exit_info.value.code == 2


class TestAcceptance:
    def test_src_tree_is_clean(self, monkeypatch, capsys):
        """The shipped tree passes its own gate."""
        monkeypatch.chdir(REPO_ROOT)
        code = main(["src"])
        out = capsys.readouterr().out
        assert code == 0, f"lint gate failed on src/:\n{out}"
        assert out.endswith(" 0 findings\n")
