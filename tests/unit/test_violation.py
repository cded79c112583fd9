"""Unit tests for the store-atomicity violation witness (Figures 6/7)."""

from repro.core.violation import ViolationDetector
from repro.cpu.load_queue import LoadQueue
from repro.cpu.store_buffer import StoreBuffer
from repro.obs.bus import ProbeBus


def _scenario():
    """st x forwards to ld x (seq 1); ld y (seq 2) is the younger load."""
    detector = ViolationDetector(ProbeBus(), line_bytes=64)
    sb = StoreBuffer(4)
    st_x = sb.allocate(0)
    st_x.addr, st_x.resolved = 0x100, True
    lq = LoadQueue(4)
    ld_x = lq.allocate(1)
    ld_x.addr = 0x100
    ld_y = lq.allocate(2)
    ld_y.addr = 0x800          # different line
    return detector, st_x, ld_x, ld_y


def test_full_window_of_vulnerability_is_witnessed():
    """Fig. 6: ld y retires inside st x's window, then an invalidation
    for y's line arrives before st x writes — store atomicity violated."""
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    # The SLF load itself: no window.
    detector.on_retire(0, 0, ld_x.seq, ld_x.addr, 0, None)
    # A younger load retires in the window.
    detector.on_retire(0, 0, ld_y.seq, ld_y.addr, 0, None)
    detector.on_line_removed(0, 0, 0x800, "inval")
    assert detector.violations == 1


def test_no_violation_if_store_writes_first():
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    detector.on_retire(0, 0, ld_y.seq, ld_y.addr, 0, None)
    # The window closes.
    detector.on_store_written(0, 0, st_x.seq, st_x.addr, 0, st_x.key)
    detector.on_line_removed(0, 0, 0x800, "inval")
    assert detector.violations == 0


def test_no_violation_without_younger_retire():
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    detector.on_line_removed(0, 0, 0x800, "inval")
    assert detector.violations == 0


def test_slf_load_itself_opens_no_window():
    """The paper's insight: the SLF load is not speculative — only
    younger loads are endangered."""
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    detector.on_retire(0, 0, ld_x.seq, ld_x.addr, 0, None)
    detector.on_line_removed(0, 0, 0x100, "inval")
    assert detector.violations == 0


def test_same_line_as_store_excluded():
    """An invalidation of the *forwarded* line relates to the store
    itself, not to a reordered observation of another location."""
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    other = ld_y
    other.addr = 0x108            # same line as st x
    detector.on_retire(0, 0, other.seq, other.addr, 0, None)
    detector.on_line_removed(0, 0, 0x100, "inval")
    assert detector.violations == 0


def test_loads_older_than_slf_open_no_window():
    """Loads preceding the SLF load in program order are inserted in
    memory order before it (Section III-A, last paragraph)."""
    detector = ViolationDetector(ProbeBus(), line_bytes=64)
    sb = StoreBuffer(4)
    st_x = sb.allocate(5)
    st_x.addr, st_x.resolved = 0x100, True
    lq = LoadQueue(4)
    older = lq.allocate(1)
    older.addr = 0x800
    slf = lq.allocate(6)
    slf.addr = 0x100
    detector.on_forward(0, 0, slf.seq, st_x.seq, st_x.addr, st_x.key)
    # Older than the SLF load.
    detector.on_retire(0, 0, older.seq, older.addr, 0, None)
    detector.on_line_removed(0, 0, 0x800, "inval")
    assert detector.violations == 0


def test_squash_cancels_windows():
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    detector.on_retire(0, 0, ld_y.seq, ld_y.addr, 0, None)
    detector.on_squash(0, 0, 1, 1)    # the SLF load was flushed
    detector.on_line_removed(0, 0, 0x800, "inval")
    assert detector.violations == 0


def test_multiple_windows_counted_independently():
    detector, st_x, ld_x, ld_y = _scenario()
    detector.on_forward(0, 0, ld_x.seq, st_x.seq, st_x.addr, st_x.key)
    detector.on_retire(0, 0, ld_y.seq, ld_y.addr, 0, None)
    third = type(ld_y).__new__(type(ld_y))  # another retired load entry
    # simpler: reuse the LoadQueue API
    from repro.cpu.load_queue import LoadQueue
    lq2 = LoadQueue(4)
    ld_z = lq2.allocate(3)
    ld_z.addr = 0xC00
    detector.on_retire(0, 0, ld_z.seq, ld_z.addr, 0, None)
    detector.on_line_removed(0, 0, 0x800, "inval")
    detector.on_line_removed(0, 0, 0xC00, "inval")
    assert detector.violations == 2


def test_windows_are_kept_per_core():
    """Fired through the bus, core 1's invalidation of the same line
    does not land in core 0's window; core 0's does."""
    bus = ProbeBus()
    detector = ViolationDetector(bus, line_bytes=64)
    bus.resolve("slf.forward")(0, 10, 1, 0, 0x100, 7)
    bus.resolve("inst.retire")(0, 12, 2, 0x800, 0, None)
    bus.resolve("line.removed")(1, 13, 0x800, "inval")
    assert detector.by_core == {}
    bus.resolve("line.removed")(0, 14, 0x800, "inval")
    assert detector.by_core == {0: 1}
    assert detector.violations == 1
