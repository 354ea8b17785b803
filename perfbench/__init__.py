"""Benchmark of the PTB reproduction: see README.md and run.py."""
