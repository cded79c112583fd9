"""Distinguisher search: enumerate, judge, minimize, de-duplicate.

:func:`search` walks a chunk of a bounded program space
(:mod:`repro.synth.space`), computes each surviving program's complete
per-model outcome sets (:func:`repro.models.axiomatic.outcome_profile`),
and keeps the programs whose sets differ between a requested model
pair.  Each hit is
**minimized** by greedy event deletion (delete any event whose removal
preserves the distinction, to a local minimum) and **de-duplicated** by
canonical form (:func:`repro.litmus.program.canonical_key`), so the
result holds one witness per structural identity per pair.

Results are JSON-round-trippable (:class:`SynthResult`) and mergeable
across chunks (:func:`merge_results`) — the unit of work the ``synth``
service job executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.litmus.parser import parse_litmus, render_litmus
from repro.litmus.program import Outcome, Program, canonical_key
from repro.models.axiomatic import Profile, outcome_profile
from repro.models.lattice import containment_violations
from repro.synth.space import SynthBounds, enumerate_programs, may_distinguish

#: The (strong, weak) pairs worth distinguishing, lattice order.
MODEL_PAIRS = (("SC", "370"), ("SC", "x86"), ("370", "x86"),
               ("x86", "WMM"), ("370", "WMM"), ("SC", "WMM"))


def lattice_violations(profile: Profile) -> List[str]:
    """The SC ⊆ 370 ⊆ x86 ⊆ WMM containment, checked on a profile.

    Every outcome a stronger model allows, every weaker model must
    allow too; a violation here means a bug in the ghb engine, not an
    interesting program — the search treats it as fatal.
    """
    return [violation.describe()
            for violation in containment_violations(profile)]


def profile_diff(profile: Profile, pair: Tuple[str, str]
                 ) -> Tuple[Outcome, ...]:
    """Outcomes the weak model admits that the strong model forbids,
    sorted — empty iff the pair's outcome sets coincide."""
    strong, weak = pair
    return tuple(sorted(profile[weak] - profile[strong], key=str))


def distinguishing_outcomes(program: Program, pair: Tuple[str, str]
                            ) -> Tuple[Outcome, ...]:
    """Outcomes the weak model of ``pair`` allows and the strong model
    forbids — non-empty iff ``program`` distinguishes the pair."""
    return profile_diff(outcome_profile(program, models=pair), pair)


def _delete_event(program: Program, tid: int, idx: int,
                  name: str) -> Optional[Program]:
    """``program`` minus one event (empty threads dropped); None when
    the deletion would leave no threads at all."""
    threads = [list(thread) for thread in program.threads]
    del threads[tid][idx]
    kept = [tuple(thread) for thread in threads if thread]
    if not kept:
        return None
    return Program(name=name, threads=tuple(kept),
                   initial=program.initial, secret=program.secret)


def minimize_program(program: Program, pair: Tuple[str, str]) -> Program:
    """Greedy local minimization: repeatedly delete any single event
    whose removal keeps the program distinguishing ``pair``, until no
    single deletion does.  The result is a local minimum — every event
    left is necessary for the distinction."""
    current = program
    shrunk = True
    while shrunk:
        shrunk = False
        for tid in range(len(current.threads)):
            for idx in range(len(current.threads[tid])):
                smaller = _delete_event(current, tid, idx, current.name)
                if smaller is not None and \
                        distinguishing_outcomes(smaller, pair):
                    current = smaller
                    shrunk = True
                    break
            if shrunk:
                break
    return current


@dataclass(frozen=True)
class Distinguisher:
    """One minimized, canonically unique witness for a model pair."""

    key: str                        # canonical_key of the minimized program
    pair: Tuple[str, str]           # (strong, weak)
    program: Program                # minimized
    index: int                      # global index of the discovering program
    events_before: int              # event count before minimization
    weak_only: Tuple[str, ...]      # str(outcome) allowed only by weak
    profile: Dict[str, Tuple[str, ...]]  # model -> sorted outcome strings

    @property
    def events(self) -> int:
        return sum(len(thread) for thread in self.program.threads)

    def to_dict(self) -> Dict:
        return {"key": self.key, "pair": list(self.pair),
                "index": self.index,
                "events": self.events,
                "events_before": self.events_before,
                "litmus": render_litmus(self.program),
                "weak_only": list(self.weak_only),
                "profile": {model: list(outs)
                            for model, outs in sorted(self.profile.items())}}

    @classmethod
    def from_dict(cls, data: Dict) -> "Distinguisher":
        return cls(key=data["key"], pair=tuple(data["pair"]),
                   program=parse_litmus(data["litmus"]).program,
                   index=data["index"],
                   events_before=data["events_before"],
                   weak_only=tuple(data["weak_only"]),
                   profile={model: tuple(outs) for model, outs
                            in data["profile"].items()})


@dataclass
class SynthResult:
    """One chunk's worth of synthesis — JSON-safe and mergeable."""

    bounds: SynthBounds
    pairs: Tuple[Tuple[str, str], ...]
    chunk: int = 0
    chunks: int = 1
    enumerated: int = 0             # programs built in this chunk
    judged: int = 0                 # programs that survived the prefilter
    hits: int = 0                   # (program, pair) distinctions pre-dedupe
    distinguishers: Dict[Tuple[Tuple[str, str], str], Distinguisher] = \
        field(default_factory=dict)
    lattice_errors: List[str] = field(default_factory=list)

    @property
    def distinct(self) -> int:
        return len(self.distinguishers)

    @property
    def dedupe_ratio(self) -> float:
        """distinct / hits — 1.0 means every hit was structurally new."""
        return self.distinct / self.hits if self.hits else 1.0

    def by_pair(self, pair: Tuple[str, str]) -> List[Distinguisher]:
        found = [d for (p, _), d in self.distinguishers.items()
                 if p == pair]
        return sorted(found, key=lambda d: (d.index, d.key))

    def to_dict(self) -> Dict:
        return {
            "bounds": self.bounds.to_dict(),
            "pairs": [list(pair) for pair in self.pairs],
            "chunk": self.chunk, "chunks": self.chunks,
            "enumerated": self.enumerated, "judged": self.judged,
            "hits": self.hits, "distinct": self.distinct,
            "dedupe_ratio": round(self.dedupe_ratio, 4),
            "lattice_errors": list(self.lattice_errors),
            "distinguishers": [
                d.to_dict() for _, d in sorted(
                    self.distinguishers.items(),
                    key=lambda item: (item[0][0], item[1].index,
                                      item[0][1]))],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SynthResult":
        result = cls(
            bounds=SynthBounds.from_dict(data["bounds"]),
            pairs=tuple(tuple(pair) for pair in data["pairs"]),
            chunk=data.get("chunk", 0), chunks=data.get("chunks", 1),
            enumerated=data["enumerated"], judged=data["judged"],
            hits=data["hits"],
            lattice_errors=list(data.get("lattice_errors", ())))
        for entry in data.get("distinguishers", ()):
            dist = Distinguisher.from_dict(entry)
            result.distinguishers[(dist.pair, dist.key)] = dist
        return result


def _record(result: SynthResult, dist: Distinguisher) -> None:
    slot = (dist.pair, dist.key)
    held = result.distinguishers.get(slot)
    if held is None or dist.index < held.index:
        result.distinguishers[slot] = dist


def search(bounds: SynthBounds,
           pairs: Sequence[Tuple[str, str]] = MODEL_PAIRS,
           chunk: int = 0, chunks: int = 1,
           known: FrozenSet[str] = frozenset(),
           limit: int = 0) -> SynthResult:
    """Search one chunk of ``bounds`` for model-pair distinguishers.

    ``known`` is a set of canonical keys to skip (already-promoted or
    battery tests); ``limit`` stops after that many *distinct* new
    witnesses (0 = exhaust the chunk).  Chunks partition the space by
    ``index % chunks``, so merging every chunk's result covers it all.
    """
    pairs = tuple(tuple(pair) for pair in pairs)
    result = SynthResult(bounds=bounds, pairs=pairs,
                         chunk=chunk, chunks=chunks)
    for index, program in enumerate_programs(bounds, chunk=chunk,
                                             chunks=chunks):
        result.enumerated += 1
        live = [pair for pair in pairs if may_distinguish(program, pair)]
        if not live:
            continue
        result.judged += 1
        profile = outcome_profile(program)
        result.lattice_errors.extend(
            f"{program.name}: {problem}"
            for problem in lattice_violations(profile))
        for pair in live:
            weak_only = profile_diff(profile, pair)
            if not weak_only:
                continue
            result.hits += 1
            small = minimize_program(program, pair)
            key = canonical_key(small)
            if key in known:
                continue
            small_profile = outcome_profile(small)
            _record(result, Distinguisher(
                key=key, pair=pair, program=small, index=index,
                events_before=sum(len(t) for t in program.threads),
                weak_only=tuple(str(o) for o in
                                profile_diff(small_profile, pair)),
                profile={model: tuple(str(o) for o in
                                      sorted(outs, key=str))
                         for model, outs in small_profile.items()}))
        if limit and result.distinct >= limit:
            break
    return result


def pool_distinguishers(results: Sequence[SynthResult]
                        ) -> List[Distinguisher]:
    """Union witnesses across results of *different* bounds (unlike
    :func:`merge_results`, which merges chunks of one space): dedupe by
    (pair, canonical key), keeping the smallest witness — deterministic
    order by pair then key."""
    best: Dict[Tuple[Tuple[str, str], str], Distinguisher] = {}
    for result in results:
        for dist in result.distinguishers.values():
            slot = (dist.pair, dist.key)
            held = best.get(slot)
            if held is None or \
                    (dist.events, dist.index) < (held.events, held.index):
                best[slot] = dist
    return [best[slot] for slot in sorted(best)]


def merge_results(results: Sequence[SynthResult]) -> SynthResult:
    """Union chunk results into one (counters summed, witnesses deduped
    by canonical key with the lowest discovering index kept)."""
    if not results:
        raise ValueError("nothing to merge")
    merged = SynthResult(bounds=results[0].bounds, pairs=results[0].pairs,
                         chunk=0, chunks=1)
    for result in results:
        if result.bounds != merged.bounds:
            raise ValueError("cannot merge results across bounds")
        merged.enumerated += result.enumerated
        merged.judged += result.judged
        merged.hits += result.hits
        merged.lattice_errors.extend(result.lattice_errors)
        for dist in result.distinguishers.values():
            _record(merged, dist)
    return merged
