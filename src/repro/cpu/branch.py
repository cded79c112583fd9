"""TAGE-style branch predictor (Table III lists Seznec's L-TAGE).

A faithful-in-spirit, reduced-size TAGE: a bimodal base predictor plus
``N`` tagged tables indexed by geometrically longer global-history
folds.  The longest-history hit provides the prediction; allocation on
mispredict picks a not-useful entry in a longer-history table; useful
counters age periodically.

The pipeline consults the predictor at dispatch and trains it when the
branch resolves; a wrong prediction raises the front-end barrier and
pays the redirect penalty.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class TagePredictor:
    """Bimodal base + geometric tagged tables."""

    HISTORY_LENGTHS = (4, 8, 16, 32)  # update() computes these folds

    __slots__ = ("base_size", "tagged_size", "tag_mask", "base", "tags",
                 "counters", "useful", "history", "useful_reset_interval",
                 "_updates", "predictions", "mispredictions", "_folds")

    def __init__(self, base_bits: int = 12, tagged_bits: int = 9,
                 tag_bits: int = 8, useful_reset_interval: int = 18_000):
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.base = [1] * self.base_size      # 2-bit counters, 0..3
        # Tagged table ``t``'s entry ``i`` is (tags[t][i], counters[t][i],
        # useful[t][i]): flat int lists, not one object per entry, so a
        # predictor is a handful of lists however large its tables.
        tables = range(len(self.HISTORY_LENGTHS))
        self.tags: List[List[int]] = [[0] * self.tagged_size
                                      for _ in tables]
        # Signed 3-bit: -4..3, taken when >= 0.
        self.counters: List[List[int]] = [[0] * self.tagged_size
                                          for _ in tables]
        # 2-bit useful counters.
        self.useful: List[List[int]] = [[0] * self.tagged_size
                                        for _ in tables]
        self.history = 0
        self.useful_reset_interval = useful_reset_interval
        self._updates = 0
        self.predictions = 0
        self.mispredictions = 0
        # Table ``t``'s fold is the youngest HISTORY_LENGTHS[t] bits of
        # global history xor-folded into 16 bits.  A pure function of
        # ``history``, it is recomputed once per update (the only place
        # history changes) instead of twice per table per lookup.
        self._folds = (0, 0, 0, 0)

    # ------------------------------------------------------------------

    def _index(self, pc: int, table: int) -> int:
        fold = self._folds[table]
        return (pc ^ (pc >> 7) ^ fold ^ (fold << (table + 1))) \
            % self.tagged_size

    def _tag(self, pc: int, table: int) -> int:
        fold = self._folds[table]
        return ((pc >> 3) ^ (fold * 3) ^ table) & self.tag_mask

    def _base_index(self, pc: int) -> int:
        return (pc ^ (pc >> 5)) % self.base_size

    # ------------------------------------------------------------------

    def _lookup(self, pc: int) -> Tuple[Optional[int], bool]:
        """(provider table index or None for bimodal, prediction).

        The index/tag hash math of :meth:`_index` / :meth:`_tag` is
        inlined here with the pc-derived terms hoisted — this runs once
        per predicted branch and twice per resolved one, making it the
        predictor's hot path.  Results are identical to the method
        forms.
        """
        folds = self._folds
        tags = self.tags
        size = self.tagged_size
        tag_mask = self.tag_mask
        px = pc ^ (pc >> 7)
        pt = pc >> 3
        for table in range(len(tags) - 1, -1, -1):
            fold = folds[table]
            idx = (px ^ fold ^ (fold << (table + 1))) % size
            if tags[table][idx] == ((pt ^ (fold * 3) ^ table) & tag_mask):
                return table, self.counters[table][idx] >= 0
        return None, self.base[(pc ^ (pc >> 5)) % self.base_size] >= 2

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        return self._lookup(pc)[1]

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome and shift global history."""
        provider, prediction = self._lookup(pc)
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1

        if provider is None:
            idx = self._base_index(pc)
            self.base[idx] = min(3, self.base[idx] + 1) if taken \
                else max(0, self.base[idx] - 1)
        else:
            idx = self._index(pc, provider)
            counters = self.counters[provider]
            counters[idx] = min(3, counters[idx] + 1) if taken \
                else max(-4, counters[idx] - 1)
            useful = self.useful[provider]
            if correct:
                useful[idx] = min(3, useful[idx] + 1)
            elif useful[idx] > 0:
                useful[idx] -= 1

        # Allocate in a longer-history table on a mispredict.
        if not correct:
            start = 0 if provider is None else provider + 1
            for table in range(start, len(self.tags)):
                idx = self._index(pc, table)
                if self.useful[table][idx] == 0:
                    self.tags[table][idx] = self._tag(pc, table)
                    self.counters[table][idx] = 0 if taken else -1
                    break

        history = ((self.history << 1) | int(taken)) & ((1 << 64) - 1)
        self.history = history
        # The folds of 4, 8 and 16 bits fit in 16 bits as they are; the
        # 32-bit fold xors its two 16-bit halves.
        low = history & 0xFFFF
        self._folds = (history & 0xF, history & 0xFF, low,
                       low ^ ((history >> 16) & 0xFFFF))
        self._updates += 1
        if self._updates >= self.useful_reset_interval:
            self._updates = 0
            for useful in self.useful:
                useful[:] = [value >> 1 for value in useful]

    @property
    def mispredict_rate(self) -> float:
        if self.mispredictions == 0:
            return 0.0
        return self.mispredictions / max(1, self.predictions)
