"""Benchmark of the gqd package; see bench/run.py."""
