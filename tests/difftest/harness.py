"""Differential-testing harness for the fault-path fast lane.

Two kernels are booted on the same machine spec and driven through the
same seeded random workload:

* the **fast** kernel uses the default resolver
  (:func:`repro.core.fault.vm_fault`) and the batch lane
  (:func:`repro.core.fault.vm_fault_batch`);
* the **reference** kernel installs
  :func:`tests.difftest.reference.vm_fault_reference`, the pinned
  page-at-a-time copy of the resolver; ``kernel.fault_batch`` then
  degrades to a scalar loop.

After every workload both kernels are fingerprinted — address-map
shape, per-page hardware mappings *and page contents*, TLB contents,
resident-page queues (in queue order, so pageout candidacy is
compared too), kernel statistics, and the normalized ``vm/*`` event
stream — and the fingerprints must be equal, field by field.

Identifiers that are process-global (task ids, object ids, ``id()``
based TLB tags) are renamed to first-seen ordinals before comparison;
everything else is compared verbatim, including physical frame
addresses (frame allocation order is deterministic, and the fast lane
must preserve it).

A failing seed is reported as a one-line repro command::

    PYTHONPATH=src python -m pytest tests/difftest -k <arch> --difftest-seed=<seed>
"""

from __future__ import annotations

import hashlib
import random

from repro.bench.testing import make_spec
from repro.core.constants import FaultType, VMProt
from repro.core.errors import VMError
from repro.core.kernel import MachKernel
from repro.obs.bus import EventRecorder
from tests.difftest.reference import vm_fault_reference

MB = 1024 * 1024

#: arch -> make_spec keyword overrides; every registered pmap.
ARCHS: dict[str, dict] = {
    "generic": {},
    "vax": dict(hw_page_size=512, page_size=4096),
    "rt_pc": dict(hw_page_size=2048, page_size=4096),
    "sun3": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "sun3_vac": dict(hw_page_size=8192, page_size=8192,
                     mmu_contexts=8),
    "ns32082": dict(hw_page_size=512, page_size=4096,
                    va_limit=16 * MB, buggy_rmw_reports_read=True),
}

#: vm/* event-data keys holding process-global object ids.
_OBJECT_ID_KEYS = ("object_id",)


def boot(arch: str, reference: bool = False,
         memory_frames: int = 96) -> MachKernel:
    """Boot one kernel; *reference* installs the pinned resolver."""
    kwargs = dict(ARCHS[arch])
    kwargs["memory_frames"] = memory_frames
    spec = make_spec(name=f"difftest-{arch}", pmap_name=arch,
                     ncpus=2, **kwargs)
    kernel = MachKernel(spec)
    if reference:
        kernel.fault_resolver = vm_fault_reference
    return kernel


# ----------------------------------------------------------------------
# Workload generation (pure: no kernel state consulted)
# ----------------------------------------------------------------------

def generate_ops(seed: int, nops: int = 120,
                 max_tasks: int = 5) -> list[tuple]:
    """A seeded random op script, replayable on any kernel.

    Tasks and regions are referenced by ordinal so the script is
    independent of any process-global counters.  The generator tracks
    its own model of which tasks/regions exist; it never consults
    kernel state, so both kernels replay the identical script.
    """
    rng = random.Random(seed)
    # model: per task, alive flag + region list (npages or None).
    tasks: list[dict] = [{"alive": True, "regions": []}]
    ops: list[tuple] = []

    def live_tasks():
        return [i for i, t in enumerate(tasks) if t["alive"]]

    def tasks_with_region():
        return [i for i in live_tasks()
                if any(r is not None for r in tasks[i]["regions"])]

    def pick_region(task_idx):
        regions = tasks[task_idx]["regions"]
        return rng.choice([j for j, r in enumerate(regions)
                           if r is not None])

    for _ in range(nops):
        kinds = ["allocate"] * 10 + ["write"] * 22 + ["read"] * 16 + \
            ["batch_read"] * 14 + ["batch_write"] * 10 + \
            ["forget"] * 8 + ["fork"] * 5 + ["protect"] * 4 + \
            ["deallocate"] * 3 + ["terminate"] * 2 + ["wire"] * 2
        kind = rng.choice(kinds)
        if kind != "allocate" and not tasks_with_region():
            kind = "allocate"
        if kind == "allocate":
            owner = rng.choice(live_tasks())
            npages = rng.randint(2, 8)
            tasks[owner]["regions"].append(npages)
            ops.append(("allocate", owner, npages))
        elif kind in ("write", "read", "forget"):
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            page = rng.randrange(tasks[owner]["regions"][region])
            if kind == "write":
                ops.append(("write", owner, region, page,
                            rng.randrange(256)))
            else:
                ops.append((kind, owner, region, page))
        elif kind in ("batch_read", "batch_write"):
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            npages = tasks[owner]["regions"][region]
            start = rng.randrange(npages)
            count = rng.randint(1, npages - start)
            ops.append((kind, owner, region, start, count))
        elif kind == "fork":
            if len(tasks) >= max_tasks:
                continue
            parent = rng.choice(live_tasks())
            tasks.append({"alive": True,
                          "regions": list(tasks[parent]["regions"])})
            ops.append(("fork", parent))
        elif kind == "protect":
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            prot = rng.choice(("r", "rw"))
            ops.append(("protect", owner, region, prot))
        elif kind == "deallocate":
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            tasks[owner]["regions"][region] = None
            ops.append(("deallocate", owner, region))
        elif kind == "terminate":
            victims = [i for i in live_tasks() if i != 0]
            if not victims:
                continue
            victim = rng.choice(victims)
            tasks[victim]["alive"] = False
            ops.append(("terminate", victim))
        elif kind == "wire":
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            ops.append(("wire", owner, region))
    return ops


# ----------------------------------------------------------------------
# Workload execution
# ----------------------------------------------------------------------

def apply_ops(kernel: MachKernel, ops: list[tuple]):
    """Replay an op script; returns (live tasks by ordinal, error log).

    Typed VM errors (protection failures etc.) are caught and logged
    by op index and type name — both kernels must fail at the same
    ops with the same error types.
    """
    tasks = [kernel.task_create(name="dt0")]
    regions: list[list] = [[]]      # per task ordinal: (addr, npages)
    errors: list[tuple[int, str]] = []
    page = kernel.page_size
    for opno, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "allocate":
                _, owner, npages = op
                addr = tasks[owner].vm_allocate(npages * page)
                regions[owner].append((addr, npages))
            elif kind == "write":
                _, owner, region, pg, byte = op
                addr, _ = regions[owner][region]
                tasks[owner].write(addr + pg * page + (byte % 17),
                                   bytes([byte]) * 4)
            elif kind == "read":
                _, owner, region, pg = op
                addr, _ = regions[owner][region]
                tasks[owner].read(addr + pg * page, 4)
            elif kind == "forget":
                _, owner, region, pg = op
                addr, _ = regions[owner][region]
                tasks[owner].pmap.forget(addr + pg * page)
            elif kind in ("batch_read", "batch_write"):
                _, owner, region, start, count = op
                addr, _ = regions[owner][region]
                fault = FaultType.READ if kind == "batch_read" \
                    else FaultType.WRITE
                kernel.fault_batch(tasks[owner], addr + start * page,
                                   count, fault)
            elif kind == "fork":
                (_, parent) = op
                child = tasks[parent].fork(name=f"dt{len(tasks)}")
                tasks.append(child)
                regions.append(list(regions[parent]))
            elif kind == "protect":
                _, owner, region, prot = op
                addr, npages = regions[owner][region]
                new = VMProt.READ if prot == "r" \
                    else VMProt.READ | VMProt.WRITE
                tasks[owner].vm_protect(addr, npages * page, False, new)
            elif kind == "deallocate":
                _, owner, region = op
                addr, npages = regions[owner][region]
                tasks[owner].vm_deallocate(addr, npages * page)
                regions[owner][region] = None
            elif kind == "terminate":
                (_, victim) = op
                tasks[victim].terminate()
            elif kind == "wire":
                _, owner, region = op
                addr, npages = regions[owner][region]
                kernel.wire_range(tasks[owner], addr, npages * page)
        except VMError as exc:
            errors.append((opno, type(exc).__name__))
    return tasks, errors


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _hash(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:16]


class _Renamer:
    """First-seen renaming of process-global identifiers."""

    def __init__(self) -> None:
        self._seen: dict = {}

    def __call__(self, ident):
        if ident not in self._seen:
            self._seen[ident] = len(self._seen)
        return self._seen[ident]


def _map_fingerprint(vm_map, rename_obj) -> list[tuple]:
    rows = []
    for entry in vm_map.entries():
        if entry.submap is not None:
            rows.append(("submap", entry.start, entry.end,
                         entry.offset, int(entry.protection),
                         entry.needs_copy, entry.wired_count,
                         tuple(_map_fingerprint(entry.submap,
                                                rename_obj))))
        else:
            chain = () if entry.vm_object is None else \
                tuple(rename_obj(id(obj))
                      for obj in entry.vm_object.chain())
            rows.append(("entry", entry.start, entry.end,
                         entry.offset, int(entry.protection),
                         int(entry.max_protection), entry.needs_copy,
                         entry.wired_count, chain))
    return rows


def _pmap_fingerprint(kernel, task) -> list[tuple]:
    """(vaddr, paddr, prot, content-hash) for every mapped hw page of
    every map entry, in address order."""
    rows = []
    physmem = kernel.machine.physmem
    hw_page = kernel.machine.hw_page_size
    for entry in task.vm_map.entries():
        for vaddr in range(entry.start, entry.end, hw_page):
            found = task.pmap.hw_lookup(vaddr)
            if found is None:
                continue
            paddr, prot = found
            rows.append((vaddr, paddr, int(prot),
                         _hash(physmem.read(paddr, hw_page))))
    return rows


def fingerprint(kernel: MachKernel, tasks) -> dict:
    """One comparable snapshot of everything the fast lane may touch."""
    rename_obj = _Renamer()
    live = [t for t in tasks if not t.terminated]
    fp: dict = {"page_size": kernel.page_size}
    fp["maps"] = {t.name: _map_fingerprint(t.vm_map, rename_obj)
                  for t in live}
    fp["pmaps"] = {t.name: _pmap_fingerprint(kernel, t) for t in live}

    pmap_names = {id(t.pmap): t.name for t in live}
    pmap_names[id(kernel.kernel_pmap)] = "<kernel>"
    tlbs = []
    for cpu in kernel.machine.cpus:
        entries = []
        for tag, vpn, paddr, prot in cpu.tlb.snapshot():
            entries.append((pmap_names.get(tag, "<dead>"), vpn, paddr,
                            int(prot)))
        tlbs.append(entries)
    fp["tlbs"] = tlbs

    physmem = kernel.machine.physmem
    page = kernel.page_size
    queues = {}
    resident = kernel.vm.resident
    for name, it in (("active", resident.iter_active),
                     ("inactive", resident.iter_inactive)):
        queues[name] = [
            (rename_obj(id(p.vm_object)), p.offset, p.phys_addr,
             p.wired, p.busy, p.absent, p.modified, p.referenced,
             p.copy_on_write, p.page_lock,
             _hash(physmem.read(p.phys_addr, page)))
            for p in it()]
    fp["queues"] = queues
    fp["resident"] = {
        "free": resident.free_count,
        "active": resident.active_count,
        "inactive": resident.inactive_count,
        "wired": resident.wired_count,
    }
    fp["stats"] = dict(vars(kernel.stats))
    mgr = kernel.vm.objects
    fp["objects"] = {
        "created": mgr.objects_created,
        "destroyed": mgr.objects_destroyed,
        "shadows": mgr.shadows_created,
        "collapses": mgr.collapses,
        "bypasses": mgr.bypasses,
    }
    return fp


def normalize_events(events) -> list[tuple]:
    """The semantically comparable slice of an event stream.

    Keeps the ``vm/*`` instant events and spans — the per-page fault
    records with their outcome notes — and renames object ids to
    first-seen ordinals.  ``vm/fault_batch`` wrapper spans and the
    ``pmap/*`` spans are mechanism, not semantics (the batch lane
    deliberately emits ``pmap/enter_batch`` + one shootdown where the
    scalar lane emits N ``pmap/enter``), so they are dropped.
    """
    rename_obj = _Renamer()
    rows = []
    for event in events:
        if event.subsystem != "vm" or event.kind == "fault_batch":
            continue
        data = {}
        for key, value in event.data.items():
            if key in _OBJECT_ID_KEYS:
                value = rename_obj(value)
            data[key] = value
        rows.append((event.phase, event.kind, event.task,
                     tuple(sorted(data.items()))))
    return rows


# ----------------------------------------------------------------------
# Pager-latency lockstep workload (protocol v2 vs the v1 shim)
# ----------------------------------------------------------------------

#: Deterministic stall scripts for pager-backed regions.  The same
#: script drives both kernels, so every data_request round trip — and
#: every retry backoff — lands in lockstep.
PAGER_SCRIPTS: tuple = ((), ("stall",), ("ok", "ok", "stall"))


def _region_content(content_seed: int, size: int) -> bytes:
    """Cheap deterministic backing-store bytes for one region."""
    stamp = hashlib.sha1(content_seed.to_bytes(8, "little")).digest()
    return (stamp * (size // len(stamp) + 1))[:size]


def generate_pager_ops(seed: int, nops: int = 80,
                       max_tasks: int = 4) -> list[tuple]:
    """A seeded op script over **pager-backed** regions.

    Same replayable-ordinal scheme as :func:`generate_ops`, but every
    region is served by an external-style store pager (optionally with
    a scripted transient stall), and an explicit ``pageout`` op runs
    the pageout daemon so dirty pages flow back through ``data_write``
    and later reads re-fault through the pager.
    """
    rng = random.Random(seed)
    tasks: list[dict] = [{"alive": True, "regions": []}]
    ops: list[tuple] = []

    def live_tasks():
        return [i for i, t in enumerate(tasks) if t["alive"]]

    def tasks_with_region():
        return [i for i in live_tasks()
                if any(r is not None for r in tasks[i]["regions"])]

    def pick_region(task_idx):
        regions = tasks[task_idx]["regions"]
        return rng.choice([j for j, r in enumerate(regions)
                           if r is not None])

    for _ in range(nops):
        kinds = ["allocate"] * 10 + ["read"] * 24 + ["write"] * 18 + \
            ["batch_read"] * 12 + ["pageout"] * 8 + ["fork"] * 4 + \
            ["deallocate"] * 3
        kind = rng.choice(kinds)
        if kind not in ("allocate", "pageout") \
                and not tasks_with_region():
            kind = "allocate"
        if kind == "allocate":
            owner = rng.choice(live_tasks())
            npages = rng.randint(2, 6)
            tasks[owner]["regions"].append(npages)
            ops.append(("allocate", owner, npages, rng.getrandbits(32),
                        rng.randrange(len(PAGER_SCRIPTS))))
        elif kind in ("read", "write"):
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            page = rng.randrange(tasks[owner]["regions"][region])
            if kind == "write":
                ops.append(("write", owner, region, page,
                            rng.randrange(256)))
            else:
                ops.append(("read", owner, region, page))
        elif kind == "batch_read":
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            npages = tasks[owner]["regions"][region]
            start = rng.randrange(npages)
            ops.append(("batch_read", owner, region, start,
                        rng.randint(1, npages - start)))
        elif kind == "pageout":
            ops.append(("pageout",))
        elif kind == "fork":
            if len(tasks) >= max_tasks:
                continue
            parent = rng.choice(live_tasks())
            tasks.append({"alive": True,
                          "regions": list(tasks[parent]["regions"])})
            ops.append(("fork", parent))
        elif kind == "deallocate":
            owner = rng.choice(tasks_with_region())
            region = pick_region(owner)
            tasks[owner]["regions"][region] = None
            ops.append(("deallocate", owner, region))
    return ops


def apply_pager_ops(kernel: MachKernel, ops: list[tuple]):
    """Replay a pager op script; returns (tasks, errors, stores).

    *stores* is the backing bytearray of every pager created, in
    creation order — after pageouts both kernels must have written the
    identical bytes back.
    """
    from repro.inject.pagers import ScriptedPager, StoreBackedPager

    tasks = [kernel.task_create(name="dp0")]
    regions: list[list] = [[]]
    stores: list[bytearray] = []
    errors: list[tuple[int, str]] = []
    page = kernel.page_size
    for opno, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "allocate":
                _, owner, npages, content_seed, script_idx = op
                backing = StoreBackedPager(
                    _region_content(content_seed, npages * page))
                stores.append(backing.store)
                pager = ScriptedPager(backing,
                                      PAGER_SCRIPTS[script_idx])
                addr = kernel.vm_allocate_with_pager(
                    tasks[owner], npages * page, pager)
                regions[owner].append((addr, npages))
            elif kind == "read":
                _, owner, region, pg = op
                addr, _ = regions[owner][region]
                tasks[owner].read(addr + pg * page, 4)
            elif kind == "write":
                _, owner, region, pg, byte = op
                addr, _ = regions[owner][region]
                tasks[owner].write(addr + pg * page + (byte % 17),
                                   bytes([byte]) * 4)
            elif kind == "batch_read":
                _, owner, region, start, count = op
                addr, _ = regions[owner][region]
                kernel.fault_batch(tasks[owner], addr + start * page,
                                   count, FaultType.READ)
            elif kind == "pageout":
                kernel.pageout_daemon.run()
            elif kind == "fork":
                (_, parent) = op
                child = tasks[parent].fork(name=f"dp{len(tasks)}")
                tasks.append(child)
                regions.append(list(regions[parent]))
            elif kind == "deallocate":
                _, owner, region = op
                addr, npages = regions[owner][region]
                tasks[owner].vm_deallocate(addr, npages * page)
                regions[owner][region] = None
        except VMError as exc:
            errors.append((opno, type(exc).__name__))
    return tasks, errors, stores


def run_pager_differential(arch: str, seed: int,
                           nops: int = 80) -> None:
    """Prove the v2 pager serving path state-equivalent to the pinned
    v1 one-page reference when replies arrive in order.

    Both kernels keep ``readahead_pages`` at its default 0, so the v2
    lane issues the same one-cluster windows the v1 shim does; with
    the store pagers answering in order, every fingerprint field, the
    typed-error log, and the final pager backing stores must match.
    ``stats.faults_parked`` is the one excluded field: parking is v2
    fault *bookkeeping* (the reference shim never parks), not VM
    state.
    """
    ops = generate_pager_ops(seed, nops=nops)
    results = {}
    for mode, reference in (("fast", False), ("reference", True)):
        kernel = boot(arch, reference=reference)
        assert kernel.readahead_pages == 0
        tasks, errors, stores = apply_pager_ops(kernel, ops)
        fp = fingerprint(kernel, tasks)
        fp["stats"].pop("faults_parked", None)
        results[mode] = {
            "fingerprint": fp,
            "errors": errors,
            "stores": [_hash(bytes(s)) for s in stores],
        }

    hint = (f"\n  repro: {repro_command(arch, seed)}"
            f" (pager lockstep)")
    fast, ref = results["fast"], results["reference"]
    assert fast["errors"] == ref["errors"], (
        f"[{arch} seed={seed:#x}] pager lockstep: typed-error logs "
        f"diverge:\n  fast={fast['errors']}\n"
        f"  ref ={ref['errors']}{hint}")
    assert fast["stores"] == ref["stores"], (
        f"[{arch} seed={seed:#x}] pager lockstep: backing stores "
        f"diverge after pageout:\n  fast={fast['stores']}\n"
        f"  ref ={ref['stores']}{hint}")
    ffp, rfp = fast["fingerprint"], ref["fingerprint"]
    for field in sorted(set(ffp) | set(rfp)):
        assert ffp.get(field) == rfp.get(field), (
            f"[{arch} seed={seed:#x}] pager lockstep: fingerprint "
            f"field {field!r} diverges:\n  fast={ffp.get(field)!r}\n"
            f"  ref ={rfp.get(field)!r}{hint}")


# ----------------------------------------------------------------------
# The differential run itself
# ----------------------------------------------------------------------

def repro_command(arch: str, seed: int) -> str:
    return (f"PYTHONPATH=src python -m pytest tests/difftest "
            f"-k {arch} --difftest-seed={seed:#x}")


def run_differential(arch: str, seed: int, nops: int = 120,
                     record_events: bool = True) -> None:
    """Run one seed on one arch; raises AssertionError on divergence."""
    ops = generate_ops(seed, nops=nops)
    results = {}
    for mode, reference in (("fast", False), ("reference", True)):
        kernel = boot(arch, reference=reference)
        if record_events:
            with EventRecorder(kernel.events,
                               capacity=500_000) as recorder:
                tasks, errors = apply_ops(kernel, ops)
            events = normalize_events(recorder.events)
            assert recorder.dropped == 0
        else:
            tasks, errors = apply_ops(kernel, ops)
            events = []
        results[mode] = {
            "fingerprint": fingerprint(kernel, tasks),
            "errors": errors,
            "events": events,
        }

    hint = f"\n  repro: {repro_command(arch, seed)}"
    fast, ref = results["fast"], results["reference"]
    assert fast["errors"] == ref["errors"], (
        f"[{arch} seed={seed:#x}] typed-error logs diverge:\n"
        f"  fast={fast['errors']}\n  ref ={ref['errors']}{hint}")
    ffp, rfp = fast["fingerprint"], ref["fingerprint"]
    for field in sorted(set(ffp) | set(rfp)):
        assert ffp.get(field) == rfp.get(field), (
            f"[{arch} seed={seed:#x}] fingerprint field {field!r} "
            f"diverges:\n  fast={ffp.get(field)!r}\n"
            f"  ref ={rfp.get(field)!r}{hint}")
    if record_events:
        fe, re_ = fast["events"], ref["events"]
        for i, (a, b) in enumerate(zip(fe, re_)):
            assert a == b, (
                f"[{arch} seed={seed:#x}] event #{i} diverges:\n"
                f"  fast={a!r}\n  ref ={b!r}{hint}")
        assert len(fe) == len(re_), (
            f"[{arch} seed={seed:#x}] event-stream lengths diverge: "
            f"fast={len(fe)} ref={len(re_)}{hint}")
