import threading
from contextlib import ExitStack

from lospace import meter


def test_track_balance_and_peak():
    m = meter.WorkspaceMeter()
    with m.activate():
        with meter.track("b", 50):
            with meter.track("a", 100):
                assert m.current_bits == 150 and m.peak_bits == 150
            with meter.track("a", 30):
                assert m.current_bits == 80
                assert m.peak_bits == 150
    assert m.current_bits == 0
    assert m.by_label["a"] == [0, 100]


def test_resize_tracks_peak():
    m = meter.WorkspaceMeter()
    with m.activate():
        with meter.track("grow", 10) as charge:
            charge.resize(500)
            charge.resize(20)
            assert m.current_bits == 20
    assert m.peak_bits == 500 and m.current_bits == 0
    assert m.by_label["grow"] == [0, 500]


def test_track_context_and_activation():
    m = meter.WorkspaceMeter()
    with m.activate():
        assert meter.current() is m
        with meter.track("x", 64):
            assert m.current_bits == 64
        assert m.current_bits == 0
    assert meter.current() is not m


def test_nested_meters_innermost_wins():
    """A charge goes to the meter active at entry, and is released there
    even after another meter has become the active one."""
    outer, inner = meter.WorkspaceMeter(), meter.WorkspaceMeter()
    with outer.activate():
        with ExitStack() as held:
            with inner.activate():
                held.enter_context(meter.track("z", 7))
            assert inner.current_bits == 7
            assert outer.current_bits == 0
        assert inner.current_bits == 0
    assert outer.by_label == {}


def test_thread_isolation():
    m = meter.WorkspaceMeter()
    seen = []

    def worker():
        seen.append(meter.current())

    with m.activate():
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen[0] is not m  # meters are per-thread


def test_null_meter_noops():
    null = meter.current()
    with meter.track("whatever", 10) as charge:
        charge.resize(5)
    assert meter.current() is null
    assert (null.current_bits, null.peak_bits, null.by_label) == (0, 0, {})


def test_int_bits_helpers():
    assert meter.int_bits(0) == 1
    assert meter.int_bits(255) == 9
    assert meter.intvec_bits([1, 2, 4]) == 2 + 3 + 4
