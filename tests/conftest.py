"""Shared fixtures: small machines, booted kernels, and the static
analysis of the shipped tree (one run per session) and of a miniature
package."""

from __future__ import annotations

import functools
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from repro import hw
from repro.analysis.cache import DEFAULT_DIR
from repro.analysis.flow import FlowReport, run_flow_passes
from repro.core.kernel import MachKernel
from repro.bench.testing import BENCH_ARCHS, make_spec
from repro.hw.costs import CostModel
from repro.hw.machine import MachineSpec
from repro.pmap.interface import ShootdownStrategy

#: A miniature ``repro`` package (see its ``__init__``), for tests of
#: the analyzer's mechanics.
MINI_REPRO = Path(__file__).parent / "data" / "mini_repro"


@pytest.fixture
def spec() -> MachineSpec:
    return make_spec()


def _teardown_sweep(k: MachKernel) -> None:
    """Run the VM sanitizer over a fixture kernel after its test.

    Any test that drove the kernel through faults, forks, pageout or
    shootdowns and left the MD layer lying about a mapping fails here
    even if its own assertions passed.  Tests that call Table 3-3
    routines directly (below machine-independent sanction) opt out by
    setting ``kernel.sanitize_on_teardown = False``.
    """
    if not getattr(k, "sanitize_on_teardown", True):
        return
    from repro.analysis.invariants import assert_all
    assert_all(k)


@pytest.fixture
def kernel(spec) -> MachKernel:
    k = MachKernel(spec)
    yield k
    _teardown_sweep(k)


@pytest.fixture
def task(kernel):
    return kernel.task_create(name="t0")


@pytest.fixture
def tiny_kernel() -> MachKernel:
    """A memory-starved kernel (32 frames) for pageout tests."""
    k = MachKernel(make_spec(memory_frames=32))
    yield k
    _teardown_sweep(k)


@pytest.fixture
def smp_kernel() -> MachKernel:
    """A 4-CPU machine for TLB-consistency tests."""
    k = MachKernel(make_spec(ncpus=4),
                   shootdown=ShootdownStrategy.IMMEDIATE)
    yield k
    _teardown_sweep(k)


@pytest.fixture(params=list(BENCH_ARCHS))
def any_pmap_kernel(request) -> MachKernel:
    """A kernel booted on each of the six MMU architectures."""
    name = request.param
    k = MachKernel(make_spec(name=f"test-{name}", pmap_name=name,
                             **BENCH_ARCHS[name]))
    yield k
    _teardown_sweep(k)


class RealTree(NamedTuple):
    """One cold analysis of the shipped tree: its report, and the cache
    directory that run filled (read-only: copy it before use)."""

    report: FlowReport
    cache: Path


@pytest.fixture(scope="session")
def real_tree(tmp_path_factory) -> RealTree:
    """Every static pass over the installed ``repro`` tree, run cold
    once per session.  The real-tree tests read its report; tests that
    run ``repro check`` on the real tree start from a copy of its
    cache (:func:`real_tree_cwd`)."""
    cache = tmp_path_factory.mktemp("real-tree") / DEFAULT_DIR.name
    return RealTree(run_flow_passes(cache_dir=cache), cache)


@pytest.fixture
def real_tree_cwd(real_tree, tmp_path, monkeypatch) -> Path:
    """A fresh working directory holding a copy of the session's cache
    as its ``.repro-cache``: ``repro check`` run there is served warm."""
    shutil.copytree(real_tree.cache, tmp_path / DEFAULT_DIR)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def mini_repro(tmp_path) -> Path:
    """A fresh copy of the miniature ``repro`` package, to analyze as
    ``run_flow_passes(mini_repro)``."""
    root = tmp_path / "repro"
    shutil.copytree(MINI_REPRO, root)
    return root


@pytest.fixture
def check_mini_repro(mini_repro, monkeypatch) -> Path:
    """``repro check`` analyzes the miniature package in place of the
    installed one (the CLI finds its runner on ``repro.analysis``)."""
    import repro.analysis as analysis
    monkeypatch.setattr(analysis, "run_flow_passes",
                        functools.partial(run_flow_passes, mini_repro))
    return mini_repro


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--difftest-seed", default=None,
        help="run the differential fault-lane tests with this single "
             "seed (hex or decimal) instead of the corpus in "
             "tests/data/difftest_seeds.txt")
