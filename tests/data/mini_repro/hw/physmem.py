"""Simulated physical memory: a pool of fixed-size frames.

Frames hold real bytes, so a test can check that data survives a trip
through the VM system and not just its bookkeeping.  A frame goes back
to the pool zeroed, so a page brought in fresh never shows another
task's data.

The frame size is the machine-independent page size chosen at boot,
not the hardware page size: the pmap may map one frame as several
hardware pages (see :mod:`repro.pmap.vax`), but memory is handed out,
zeroed and returned a whole frame at a time.  The pool is a plain free
list; which frame comes back first is of no interest to anyone above.
"""

from repro.core.constants import is_power_of_two
from repro.core.errors import ResourceShortageError


class PhysicalMemory:
    """*nframes* frames of *frame_size* bytes of real data each."""

    def __init__(self, nframes: int, frame_size: int) -> None:
        if not is_power_of_two(frame_size):
            raise ValueError("frame size must be a power of two")
        self.frame_size = frame_size
        self.data = [bytearray(frame_size) for _ in range(nframes)]
        self.unused = list(range(nframes))

    def take_frame(self) -> int:
        """A zeroed frame's number, taken out of the pool.  Raises
        ResourceShortageError when every frame is in use."""
        if not self.unused:
            raise ResourceShortageError("no free physical frame")
        return self.unused.pop()

    def return_frame(self, frame: int) -> None:
        """Zero *frame* and put it back in the pool."""
        self.data[frame][:] = bytes(self.frame_size)
        self.unused.append(frame)
