"""Simulator benchmark for ``repro``; the entry point is ``perfbench/run.py``."""
