"""The simulated machine, reduced to its physical memory.

The hardware layer imports nothing above itself but the shared
vocabulary (``core.constants`` and ``core.errors``).
"""
