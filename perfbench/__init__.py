"""Benchmark of the federation simulator; run it with ``python3 perfbench/run.py``."""
