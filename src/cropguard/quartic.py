"""Holds no code: eigenvalues come from ``numpy.linalg.eigvals`` (see
``stability``).

The module exists only because the benchmark's tracer (``cropbench/spans.py``)
imports every layer it lists by name; it goes with the next change to the
benchmark (ROADMAP item 15).
"""
