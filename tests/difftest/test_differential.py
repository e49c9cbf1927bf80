"""The differential gate: fast fault lane == pinned reference.

Every (architecture, seed) cell boots two kernels — one on the default
resolver + batch lane, one on the pinned page-at-a-time reference —
replays the same seeded random workload on both, and asserts the full
state fingerprint and normalized event stream are identical (see
``harness.py`` for exactly what is compared).

The seed corpus lives in ``tests/data/difftest_seeds.txt``; a failure
message ends with the one-line repro command for its cell, and
``--difftest-seed=<seed>`` replays a single seed across all archs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.testing import BENCH_ARCHS
from tests.difftest.harness import (
    repro_command,
    run_differential,
    run_pager_differential,
)

SEEDS_FILE = Path(__file__).parent.parent / "data" / "difftest_seeds.txt"


def load_corpus() -> list[int]:
    seeds = []
    for line in SEEDS_FILE.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            seeds.append(int(line, 0))
    return seeds


CORPUS = load_corpus()


def _seeds(config) -> list[int]:
    override = config.getoption("--difftest-seed", default=None)
    if override is not None:
        return [int(override, 0)]
    return CORPUS


@pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
def test_fast_lane_matches_reference(arch, request):
    """Zero state divergence over the whole corpus, per architecture."""
    for seed in _seeds(request.config):
        try:
            run_differential(arch, seed, nops=100)
        except AssertionError:
            print(f"\nFAILING SEED repro: {repro_command(arch, seed)}")
            raise


@pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
def test_pager_lockstep_v2_matches_v1_reference(arch, request):
    """Protocol v2 == the pinned one-page v1 shim when replies arrive
    in order: pager-backed regions, scripted stalls, pageout/re-fault
    round trips — identical state on every pmap."""
    for seed in _seeds(request.config):
        try:
            run_pager_differential(arch, seed, nops=80)
        except AssertionError:
            print(f"\nFAILING SEED repro: {repro_command(arch, seed)}")
            raise


def test_corpus_is_nonempty_and_parseable():
    assert len(CORPUS) >= 5
    assert all(isinstance(s, int) for s in CORPUS)


def test_repro_command_round_trips():
    cmd = repro_command("vax", 0xBAD5EED)
    assert "tests/difftest" in cmd
    assert "-k vax" in cmd
    assert "--difftest-seed=0xbad5eed" in cmd
