"""Working-space accounting.

The space model charges every live auxiliary buffer, in bits, and excludes
the read-only input and the emitted output.  Core routines register their
O(n)-sized buffers against the active meter; scalars and loop counters are
not charged.  Integers are charged at their bit length (a residue vector
mod p at p.bit_length() + 1 bits per entry), so the numbers reported here
are the model's bit counts, not process RSS.

``track`` is the one way to charge a buffer: the charge lasts exactly as
long as its ``with`` block, and ``resize`` adjusts it in place::

    with meter.track("crt.state", 2) as state:
        ...
        state.resize(2 * P.bit_length())

A buffer that lives as long as an object (a solver's determinant or
cached polynomial) is charged by making the object a context manager
that holds the ``track`` open.

A meter is installed with ``activate()`` and queried afterwards::

    m = WorkspaceMeter()
    with m.activate():
        run_solver(...)
    print(m.peak_bits)

When no meter is active, charges go to a shared null meter that keeps
nothing, so instrumented code pays almost nothing in the common case.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


def int_bits(x: int) -> int:
    """Model size of a Python integer payload (sign + magnitude bits)."""
    return x.bit_length() + 1


def intvec_bits(v) -> int:
    return sum(x.bit_length() + 1 for x in v)


class WorkspaceMeter:
    """Bit counter of live charges with per-label peaks."""

    def __init__(self):
        self.current_bits = 0
        self.peak_bits = 0
        self.by_label = {}

    def _charge(self, label: str, bits: int) -> None:
        """The one charge path: ``track`` adds bits under label on entry and
        on growth, and subtracts them on shrinking and on exit."""
        self.current_bits += bits
        if self.current_bits > self.peak_bits:
            self.peak_bits = self.current_bits
        lab = self.by_label.setdefault(label, [0, 0])  # [live, peak]
        lab[0] += bits
        if lab[0] > lab[1]:
            lab[1] = lab[0]

    @contextmanager
    def activate(self):
        _stack().append(self)
        try:
            yield self
        finally:
            _stack().pop()

    def report(self) -> str:
        lines = [f"peak {self.peak_bits} bits, live {self.current_bits} bits"]
        for label in sorted(self.by_label):
            cur, peak = self.by_label[label]
            lines.append(f"  {label}: peak {peak} bits (live {cur})")
        return "\n".join(lines)


class _NullMeter(WorkspaceMeter):
    """Sink used when nothing is activated; keeps no state."""

    def _charge(self, label, bits):
        pass


_NULL = _NullMeter()
_local = threading.local()


def _stack():
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


def current() -> WorkspaceMeter:
    """The innermost active meter of this thread, or a shared no-op."""
    st = _stack()
    return st[-1] if st else _NULL


class track:
    """``with track(label, bits) as t:`` charges bits under label to the
    meter active at entry until the block ends; ``t.resize(bits)`` changes
    the charge in place, for a buffer that grows or shrinks."""

    __slots__ = ("label", "bits", "meter")

    def __init__(self, label: str, bits: int):
        self.label = label
        self.bits = bits

    def __enter__(self) -> track:
        self.meter = current()
        self.meter._charge(self.label, self.bits)
        return self

    def resize(self, bits: int) -> None:
        self.meter._charge(self.label, bits - self.bits)
        self.bits = bits

    def __exit__(self, *exc):
        self.meter._charge(self.label, -self.bits)
