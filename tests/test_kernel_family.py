"""Tests for the per-family pin lookup of the pinned solves."""

import pytest

import kernel_family

TABLE = {"SkylakeX": {2: ["0x1.0p+0"]}, "Haswell": {2: ["0x1.8p+0"]}}


class TestRecorded:
    def test_reads_the_set_of_this_process_family(self, monkeypatch):
        monkeypatch.setattr(kernel_family, "openblas_core", lambda: ("Haswell", "OpenBLAS Haswell"))
        assert kernel_family.recorded(TABLE, 2, ["0x1.0p+0"]) == ["0x1.8p+0"]

    def test_a_family_without_a_set_fails_naming_it(self, monkeypatch):
        # Neither a skip nor another family's set.
        monkeypatch.setattr(kernel_family, "openblas_core", lambda: ("Nehalem", "OpenBLAS 0.3.31 Nehalem"))
        with pytest.raises(pytest.fail.Exception) as exc:
            kernel_family.recorded(TABLE, 2, ["0x1.4p+0"])
        assert str(exc.value) == (
            "no pins recorded for OpenBLAS kernel family 'Nehalem' (OpenBLAS 0.3.31 Nehalem); "
            "this run gave 2: ['0x1.4p+0']"
        )


class TestOpenblas:
    def test_the_config_string_names_the_core(self):
        core, config = kernel_family.openblas_core()
        assert core in config

    def test_one_blas_thread_restores_the_thread_count(self):
        threads = kernel_family._library()["get_num_threads"]
        before = threads()
        with kernel_family.one_blas_thread():
            assert threads() == 1
        assert threads() == before
