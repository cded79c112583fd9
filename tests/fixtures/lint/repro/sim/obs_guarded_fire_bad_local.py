"""Fixture: a probe bound to a local and fired without an ``is not
None`` guard on the local (obs-guarded-fire)."""


class Component:
    __slots__ = ("_p_tick",)

    def __init__(self, bus):
        self._p_tick = bus.resolve("cache.fill")

    def tick(self, now, items):
        p_tick = self._p_tick
        for item in items:
            p_tick(now, item)
