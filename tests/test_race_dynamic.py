"""Concurrency at run time: schedule policies, the shootdown windows
the sanitizer sanctions, and the storm.

Three demonstrations anchor the suite:

* the *lost update* — two threads splitting a read-modify-write across
  a ``yield`` lose an increment under seeded-random schedules, never
  under round-robin, and the static lint flags the body;
* the *deferred window* — staleness inside an open DEFERRED/LAZY
  window is sanctioned, the same staleness after the window closes is
  a ``tlb-stale`` violation (a lost flush is the injected bug that
  proves the sanitizer can fire);
* the *storm* — arch x strategy cells under seeded-random schedules
  pass the sanitizer on the unmodified kernel, and the seed corpus in
  ``tests/data/race_seeds.txt`` pins both survived storm seeds and
  seeds that reproduce the lost update.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.matrix import (
    RACE_SEED,
    boot,
    cell_seed,
    explore_shootdown,
    race_line,
    run_race_cell,
)
from repro.analysis.invariants import check_tlbs
from repro.analysis.race import check_atomicity
from repro.analysis.schedules import (
    RecordingPolicy,
    SeededRandomPolicy,
    explore_schedules,
)
from repro.core.kernel import MachKernel
from repro.pmap.interface import ShootdownStrategy
from repro.sched import RoundRobinPolicy, Scheduler

from tests.conftest import make_spec

PAGE = 4096
CORPUS = Path(__file__).parent / "data" / "race_seeds.txt"


# ======================================================================
# Satellite: the lost-update demonstration
# ======================================================================


def _lost_update_final(policy=None) -> int:
    """Two threads increment a shared counter with the read and the
    write split across a preemption point; returns the final value
    (2 = both increments landed, 1 = one was lost)."""
    kernel = MachKernel(make_spec(ncpus=1))
    sched = Scheduler(kernel, timer_tick_every=0, policy=policy)
    task = kernel.task_create(name="counter")
    addr = task.vm_allocate(kernel.page_size)
    task.write(addr, b"\x00")

    def bump(ctx):
        v = ctx.read(addr, 1)[0]
        yield                           # the window for the race
        ctx.write(addr, bytes([v + 1]))

    def bump_staggered(ctx):
        yield                           # stagger: safe under FIFO
        v = ctx.read(addr, 1)[0]
        yield
        ctx.write(addr, bytes([v + 1]))

    sched.spawn(task, bump, name="a")
    sched.spawn(task, bump_staggered, name="b")
    sched.run()
    return task.read(addr, 1)[0]


class TestLostUpdate:
    def test_round_robin_schedule_is_safe(self):
        assert _lost_update_final(RoundRobinPolicy()) == 2

    @pytest.mark.parametrize("seed", [3, 13, 23])
    def test_seeded_random_schedule_loses_an_update(self, seed):
        assert _lost_update_final(SeededRandomPolicy(seed)) == 1

    def test_static_lint_flags_the_body(self):
        """The atomicity lint points at exactly this bug class: the
        value crosses a yield between its read and its write."""
        findings = check_atomicity(
            "tests.test_race_dynamic",
            ast.parse(Path(__file__).read_text(encoding="utf-8")))
        stale = [f for f in findings
                 if f.rule == "stale-read-across-yield"
                 and "bump" in f.where]
        assert len(stale) >= 2, findings


# ======================================================================
# Satellite: DEFERRED-window semantics
# ======================================================================


def _cached_then_invalidated(strategy):
    """cpu1 caches a translation; cpu0 deallocates the page, opening a
    shootdown window for cpu1.  Returns (kernel, task, addr, cpu1)."""
    kernel = boot("generic", strategy, ncpus=2)
    task = kernel.task_create(name="win")
    addr = task.vm_allocate(2 * kernel.page_size)
    kernel.set_current_cpu(1)
    task.write(addr, b"a")
    kernel.set_current_cpu(0)
    task.vm_deallocate(addr, kernel.page_size)
    kernel.set_current_cpu(1)
    return kernel, task, addr, kernel.machine.cpus[1]


class TestInvalidationWindows:
    def test_immediate_leaves_no_stale_entry(self):
        kernel, task, addr, cpu1 = _cached_then_invalidated(
            ShootdownStrategy.IMMEDIATE)
        assert cpu1.tlb.probe(task.pmap, addr) is None
        assert check_tlbs(kernel) == []

    def test_deferred_in_window_staleness_is_sanctioned(self):
        kernel, task, addr, cpu1 = _cached_then_invalidated(
            ShootdownStrategy.DEFERRED)
        # The stale entry is still there — and consuming it before the
        # timer tick is exactly what DEFERRED permits.
        assert cpu1.tlb.probe(task.pmap, addr) is not None
        assert check_tlbs(kernel) == []

    def test_deferred_tick_drains_and_then_nothing_is_stale(self):
        kernel, task, addr, cpu1 = _cached_then_invalidated(
            ShootdownStrategy.DEFERRED)
        kernel.machine.tick_all_timers()
        assert cpu1.tlb.probe(task.pmap, addr) is None
        assert check_tlbs(kernel) == []

    def test_deferred_lost_flush_is_a_race_after_the_window(self):
        """The injected bug the TLB audit exists for: the deferred
        flush is lost, the tick closes the window, and the entry that
        survives it is reported, naming the CPU and the address."""
        kernel, task, addr, cpu1 = _cached_then_invalidated(
            ShootdownStrategy.DEFERRED)
        cpu1._deferred_flushes.clear()      # lose the flush
        kernel.machine.tick_all_timers()    # ... window closes anyway
        assert cpu1.tlb.probe(task.pmap, addr) is not None
        violations = check_tlbs(kernel)
        assert [v.kind for v in violations] == ["tlb-stale"]
        assert f"cpu1 TLB still maps {task.pmap!r} va {addr:#x}" \
            in violations[0].detail

    def test_lazy_staleness_is_sanctioned_until_flush(self):
        kernel, task, addr, cpu1 = _cached_then_invalidated(
            ShootdownStrategy.LAZY)
        assert cpu1.tlb.probe(task.pmap, addr) is not None
        kernel.machine.tick_all_timers()    # ticks do not bound LAZY
        assert cpu1.tlb.probe(task.pmap, addr) is not None
        assert check_tlbs(kernel) == []
        # The activate-time flush closes the window and drops the
        # entry — nothing stale survives to hit.
        cpu1.tlb.flush_all()
        assert cpu1.tlb.probe(task.pmap, addr) is None
        assert check_tlbs(kernel) == []


# ======================================================================
# The storm and its corpus
# ======================================================================


class TestStorm:
    def test_immediate_has_no_false_positives(self):
        """IMMEDIATE never sanctions staleness, so any violation under
        it on the unmodified kernel would be a sanitizer false
        positive."""
        result = run_race_cell("generic", ShootdownStrategy.IMMEDIATE,
                               RACE_SEED)
        assert result.ok, race_line(result)

    def test_cell_result_prints_replay_seed(self):
        result = run_race_cell("generic", ShootdownStrategy.DEFERRED,
                               RACE_SEED)
        assert f"seed={RACE_SEED:#x}" in race_line(result)

    def test_cell_seed_varies_per_cell(self):
        seeds = {cell_seed(RACE_SEED, a, s, w)
                 for a in ("generic", "vax")
                 for s in ("immediate", "lazy")
                 for w in ("fork+COW", "shootdown")}
        assert len(seeds) == 8

    def test_storm_mirrors_counters_into_stats(self):
        result = run_race_cell("generic", ShootdownStrategy.LAZY,
                               RACE_SEED)
        assert result.ok, race_line(result)


def _corpus_entries():
    storm, lost = [], []
    for line in CORPUS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        kind, arg, seed = line.split()
        if kind == "lost-update":
            lost.append(int(seed, 0))
        else:
            storm.append((kind, arg, int(seed, 0)))
    return storm, lost


_STORM_ENTRIES, _LOST_ENTRIES = _corpus_entries()


@pytest.mark.parametrize(("arch", "strategy", "seed"), _STORM_ENTRIES)
def test_corpus_replay_storm(arch, strategy, seed):
    """Previously-survived storm seeds stay green."""
    result = run_race_cell(arch, ShootdownStrategy(strategy), seed)
    assert result.ok, (f"corpus regression: {race_line(result)} "
                       f"(replay: run_race_cell({arch!r}, "
                       f"ShootdownStrategy({strategy!r}), {seed}))")


@pytest.mark.parametrize("seed", _LOST_ENTRIES)
def test_corpus_replay_lost_update(seed):
    """Seeds that reproduce the lost update keep reproducing it — the
    demonstration cannot silently rot into a schedule that no longer
    interleaves."""
    assert _lost_update_final(SeededRandomPolicy(seed)) == 1


# ======================================================================
# Systematic exploration
# ======================================================================


class TestExploration:
    def test_recording_policy_replays_its_prefix(self):
        policy = RecordingPolicy(prefix=(1, 0, 1))
        ready = ("a", "b", "c")
        assert [policy.choose(ready) for _ in range(4)] == [1, 0, 1, 0]
        assert policy.choices_made()[:3] == (1, 0, 1)

    def test_explore_visits_multiple_schedules(self):
        seen = []

        def run(policy):
            a = policy.choose(("x", "y"))
            b = policy.choose(("x", "y", "z"))
            seen.append((a, b))
            return {"ok": True}

        result = explore_schedules(run, max_schedules=20)
        assert result.ok
        assert result.schedules_explored == len(seen)
        assert len(set(seen)) == len(seen) >= 6    # 2 * 3 interleavings

    def test_explore_reports_failing_prefix(self):
        def run(policy):
            first = policy.choose(("x", "y"))
            if first == 1:
                return {"ok": False, "detail": "boom"}
            return {"ok": True}

        result = explore_schedules(run, max_schedules=10)
        assert not result.ok
        prefix, detail = result.failures[0]
        assert detail == "boom"
        # The failing prefix replays deterministically.
        replay = RecordingPolicy(prefix=prefix)
        assert run(replay) == {"ok": False, "detail": "boom"}

    def test_shootdown_exploration_is_clean_and_counted(self):
        result = explore_shootdown(max_schedules=40)
        assert result.ok, result.failures
        assert 1 < result.schedules_explored <= 40
