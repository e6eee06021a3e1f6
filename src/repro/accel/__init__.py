"""Compatibility stub: the simulator has a single pure-Python backend.

This module exists only because ``perfbench/run.py`` records
``default_backend_name()`` in its provenance; it goes away once the
benchmark stops importing it.
"""


def default_backend_name() -> str:
    """The name of the one host backend, for benchmark provenance."""
    return "pure"
