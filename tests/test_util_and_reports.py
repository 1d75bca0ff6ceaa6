"""Tests for the small shared utilities and report formatting."""

from repro._util import (HIGH_BIT32, format_table, to_signed32, wrap32,
                         wrap64)


class TestIntegerHelpers:
    def test_wrap32(self):
        assert wrap32(0xFFFFFFFF + 1) == 0
        assert wrap32(-1) == 0xFFFFFFFF

    def test_wrap64(self):
        assert wrap64(2 ** 64) == 0

    def test_to_signed32(self):
        assert to_signed32(0xFFFFFFFF) == -1
        assert to_signed32(5) == 5
        assert to_signed32(HIGH_BIT32) == -(2 ** 31)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "----" in lines[1]

    def test_ragged_rows(self):
        text = format_table(["a"], [["x", "extra"]])
        assert "extra" in text

    def test_non_string_cells(self):
        assert "42" in format_table(["n"], [[42]])


class TestPackageSurface:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_top_level_exports(self):
        import repro
        assert callable(repro.parse_litmus)
        assert callable(repro.write_litmus)

    def test_all_modules_importable(self):
        import importlib
        for module in [
            "repro.ptx", "repro.hierarchy", "repro.litmus", "repro.model",
            "repro.model.cat", "repro.model.models", "repro.model.operational",
            "repro.diy", "repro.sim", "repro.harness", "repro.compiler",
            "repro.apps", "repro.data", "repro.cli",
        ]:
            importlib.import_module(module)
