"""Fixture: oracle-test-missing (ORACLE_TESTS names a ghost file)."""

REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.dram.protocol"
ORACLE_TESTS = ("tests/test_does_not_exist.py",)
