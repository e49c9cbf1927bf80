"""Host-time benchmark of the simulator: five workloads, one traced run.

``python3 perf/run.py`` is the entry point; see ``perf/README.md``.
"""
