"""Benchmark of the resonance-atlas pipeline; see README.md."""
