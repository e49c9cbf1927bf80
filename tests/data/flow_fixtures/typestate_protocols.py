"""Known-bad fixture: one violation per shipped typestate rule.

Each class below commits exactly the protocol crime its name says,
several of them split across a helper call so the intraprocedural
passes cannot see them.  The typestate tests assert every rule in
this file fires; if an engine change silences one, the matching test
goes red.
"""


class PageUseAfterFreeCrossCall:
    """Helper frees the page; the caller re-activates it."""

    def _drop(self, page):
        self.resident.free(page)

    def scan(self, page):
        self._drop(page)
        self.resident.activate(page)    # page-use-after-free


class PageDoubleFree:
    def run(self, page):
        self.resident.free(page)
        self.resident.free(page)        # page-double-free


class PageFreeWhileWired:
    def run(self, page):
        self.resident.wire(page)
        self.resident.free(page)        # page-free-while-wired


class ObjectUseAfterDeallocate:
    def run(self, obj):
        self.objects.deallocate(obj)
        obj.reference()                 # object-use-after-deallocate


class ObjectDoubleDeallocateCrossCall:
    """Helper drops the reference; the caller drops it again."""

    def _finish(self, obj):
        self.objects.deallocate(obj)

    def run(self, obj):
        self._finish(obj)
        self.objects.deallocate(obj)    # object-double-deallocate


class EntryUseAfterUnlink:
    def structural(self, entry):
        self._unlink(entry)
        self._link(entry)               # entry-use-after-unlink (map op)

    def write_after(self, entry):
        self._unlink(entry)
        entry.start = 0                 # entry-use-after-unlink (write)


class ShootdownBeforeYield:
    """A pmap left TLB-dirty crosses a preemption point."""

    def _strip(self, pmap, start, end):
        pmap.remove(start, end, shoot=False)

    def run(self, pmap, ctx, start, end):
        self._strip(pmap, start, end)
        ctx.read(start)                 # shootdown-before-yield
        self.system.shootdown(pmap, start, end)


def spawned_body_workload(sched, task, system, pmap, s, e):
    """The thread body takes no ctx parameter: it is one because it is
    handed to ``sched.spawn``, so its bare ``yield`` preempts."""

    def body(c):
        pmap.remove(s, e, shoot=False)
        yield                           # shootdown-before-yield
        system.shootdown(pmap, s, e)

    sched.spawn(task, body)
