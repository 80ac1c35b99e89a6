"""Whole-pipeline benchmark: see ``perfbench/README.md``."""
