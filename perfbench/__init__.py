"""Benchmark of the yule-ou package; entry point perfbench/run.py."""
