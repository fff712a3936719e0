"""Engine behavior: file discovery and parse errors."""

import os

import pytest

from repro.analysis import analyze_paths, analyze_source, iter_python_files
from repro.analysis.findings import Severity


class TestIterPythonFiles:
    def _make_tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / ".hidden").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden" / "c.py").write_text("x = 1\n")
        return tmp_path

    def test_sorted_and_filtered(self, tmp_path):
        root = self._make_tree(tmp_path)
        pairs = iter_python_files([str(root)], root=str(root))
        assert [display for _, display in pairs] == ["pkg/a.py", "pkg/b.py"]

    def test_deterministic_across_calls(self, tmp_path):
        root = self._make_tree(tmp_path)
        first = iter_python_files([str(root)], root=str(root))
        second = iter_python_files([str(root)], root=str(root))
        assert first == second

    def test_explicit_file(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        pairs = iter_python_files([str(target)], root=str(tmp_path))
        assert [display for _, display in pairs] == ["one.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_python_files([str(tmp_path / "nope")], root=str(tmp_path))

    def test_display_paths_are_posix(self, tmp_path):
        root = self._make_tree(tmp_path)
        for _, display in iter_python_files([str(root)], root=str(root)):
            assert os.sep == "/" or "\\" not in display


class TestParseError:
    def test_syntax_error_becomes_e0(self):
        findings = analyze_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "E0"
        assert finding.severity is Severity.ERROR
        assert finding.path == "bad.py"
        assert "does not parse" in finding.message

    def test_parse_error_does_not_abort_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("import random\nx = random.random()\n")
        report = analyze_paths([str(tmp_path)], root=str(tmp_path), allowlist={})
        assert report.files_analyzed == 2
        assert sorted(f.rule for f in report.findings) == ["E0", "R1"]
