"""Working-space accounting.

The space model charges every live auxiliary buffer, in bits, and excludes
the read-only input and the emitted output.  Core routines register their
O(n)-sized buffers against the active meter; scalars and loop counters are
not charged.  Integers are charged at their bit length (a residue vector
mod p at p.bit_length() + 1 bits per entry), so the numbers reported here
are the model's bit counts, not process RSS.

A meter is installed with ``activate()`` and queried afterwards::

    m = WorkspaceMeter()
    with m.activate():
        run_solver(...)
    print(m.peak_bits)

When no meter is active, registration is a no-op through a shared null
meter, so instrumented code pays almost nothing in the common case.
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
    """Byte/bit counter of registered live buffers with per-label peaks."""

    def __init__(self):
        self.current_bits = 0
        self.peak_bits = 0
        self.by_label = {}
        self._next_token = 0
        self._live = {}

    def alloc(self, label: str, bits: int) -> int:
        """Register a live buffer; returns a token for ``free``."""
        tok = self._next_token
        self._next_token += 1
        self._live[tok] = (label, bits)
        self.current_bits += bits
        if self.current_bits > self.peak_bits:
            self.peak_bits = self.current_bits
        lab = self.by_label.setdefault(label, [0, 0])  # [current, peak]
        lab[0] += bits
        if lab[0] > lab[1]:
            lab[1] = lab[0]
        return tok

    def free(self, token: int) -> None:
        label, bits = self._live.pop(token)
        self.current_bits -= bits
        self.by_label[label][0] -= bits

    def resize(self, token: int, bits: int) -> None:
        """Adjust a registered buffer in place (e.g. a growing big integer)."""
        label, old = self._live[token]
        self._live[token] = (label, bits)
        self.current_bits += bits - old
        if self.current_bits > self.peak_bits:
            self.peak_bits = self.current_bits
        lab = self.by_label[label]
        lab[0] += bits - old
        if lab[0] > lab[1]:
            lab[1] = lab[0]

    def track(self, label: str, bits: int) -> "track":
        return track(label, bits, self)

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

    def alloc(self, label, bits):
        return -1

    def free(self, token):
        pass

    def resize(self, token, bits):
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
    """``with track(label, bits) as tok:`` charges a buffer to meter, or
    to the active meter when none is given, for the dynamic extent."""

    __slots__ = ("label", "bits", "meter", "token")

    def __init__(self, label: str, bits: int, meter=None):
        self.label = label
        self.bits = bits
        self.meter = meter

    def __enter__(self) -> int:
        if self.meter is None:
            self.meter = current()
        self.token = self.meter.alloc(self.label, self.bits)
        return self.token

    def __exit__(self, *exc):
        self.meter.free(self.token)
