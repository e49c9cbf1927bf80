"""Static and dynamic enforcement of the MD/MI contract.

* :mod:`repro.analysis.layering` — AST import lint for the paper's
  module boundary (machine-independent code vs. the pmap layer vs. the
  hardware substrate), the ``layering`` whole-tree pass, and the one
  owner of the rule for what a pmap module may import;
* :mod:`repro.analysis.invariants` — runtime sanitizer proving every
  pmap/TLB translation is a subset of machine-independent truth, and
  the one judge of TLB coherence: a TLB may stay stale only inside the
  window its Section 5.2 shootdown strategy allows;
* :mod:`repro.analysis.race` — the concurrency lints: the
  ``#: guarded-by`` contract (its static lint, the ``concurrency``
  whole-tree pass) and the ``atomicity`` flow pass (stale shared state
  across a may-yield call, judged on the shared call-graph summaries);
* :mod:`repro.analysis.matrix` — the one arch x scenario runner behind
  the ``check`` sweeps, ``faultsweep`` and ``races``: storm cells run
  threads under a seeded schedule with the sanitizer armed, fault cells
  run under the fault injector, over the scenario library in
  :mod:`repro.analysis.scenarios`;
* :mod:`repro.analysis.schedules` — schedule policies (seeded-random,
  recording/replay) and bounded DFS exploration of interleavings;
* :mod:`repro.analysis.cfg` / :mod:`repro.analysis.flow` — the AST→CFG
  dataflow framework (exception edges, yield points, the one
  thread-body and yield-primitive rule, forward worklist solver) and
  the one runner of every static pass, with one cache, one
  :class:`~repro.analysis.flow.Finding` type and one reviewed
  baseline;
* :mod:`repro.analysis.typestate` — the one ownership engine, reported
  as two passes: ``lifecycle`` (acquire/release pairing of swap slots,
  vm_object references, resident pages, holding maps and port rights)
  and ``typestate`` (page, object, map-entry and shootdown protocols);
* :mod:`repro.analysis.conformance` — pmap and pager contract
  verifier over the live registries (one interface checker for both:
  coverage and signatures; TLB invalidation; capability honesty), and
  the layering lint's pmap-import rule for pmaps defined outside the
  ``repro`` tree, whose imports the lint never reads;
* :mod:`repro.analysis.errorpaths` — transient-error call sites must
  meet the PR 2 retry policy (or carry ``#: no-retry``); broad
  swallowing excepts in kernel paths are flagged;
* :mod:`repro.analysis.determinism` — no wall clock / unseeded
  randomness in replayed simulation code.

Run the static checks and the sweeps via ``python -m repro check``;
run the concurrency storm via ``python -m repro races``.
"""

from repro.analysis.invariants import (
    SanitizerError,
    Violation,
    assert_all,
    check_all,
    check_tlbs,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.analysis.conformance import (
    verify_pmap_class,
    verify_pmap_conformance,
)
from repro.analysis.flow import (
    AnalysisError,
    Finding,
    FlowReport,
    load_baseline,
    run_flow_passes,
)
from repro.analysis.layering import lint_package, lint_source_tree
from repro.analysis.matrix import (
    CellResult,
    explore_shootdown,
    run_faultsweep,
    run_race_cell,
    run_races,
    run_sweeps,
)
from repro.analysis.race import lint_guarded_by, lint_source_concurrency
from repro.analysis.schedules import (
    ExplorationResult,
    RecordingPolicy,
    SeededRandomPolicy,
    explore_schedules,
)

__all__ = [
    "AnalysisError",
    "CellResult",
    "ExplorationResult",
    "Finding",
    "FlowReport",
    "RecordingPolicy",
    "SanitizerError",
    "SeededRandomPolicy",
    "Violation",
    "assert_all",
    "check_all",
    "check_tlbs",
    "explore_schedules",
    "explore_shootdown",
    "install_sanitizer",
    "lint_guarded_by",
    "lint_package",
    "lint_source_concurrency",
    "lint_source_tree",
    "load_baseline",
    "run_faultsweep",
    "run_flow_passes",
    "run_race_cell",
    "run_races",
    "run_sweeps",
    "uninstall_sanitizer",
    "verify_pmap_class",
    "verify_pmap_conformance",
]
