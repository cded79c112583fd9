"""Fixture: a probe bound to a local once per call, each fire guarded
on the local."""


class Component:
    __slots__ = ("_p_tick",)

    def __init__(self, bus):
        self._p_tick = bus.resolve("cache.fill")

    def tick(self, now, items):
        p_tick = self._p_tick
        for item in items:
            if p_tick is not None:
                p_tick(now, item)

    def other(self, now, p_tick):
        # A parameter of the same name is not a bound probe.
        p_tick(now)
