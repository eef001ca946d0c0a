"""Layered benchmark of powerdenom; run ``python3 perfbench/run.py``."""
