"""On-disk result cache for sweep jobs.

One JSON file per result, named by the SHA-256 of the job's canonical
description (see :func:`repro.sweep.runner.job_key`).  The key includes
a hash of the simulator's own source tree, so any code change — an event
reordering, a latency tweak, a new counter — invalidates every cached
result automatically.  Nothing is ever considered stale by age; a cache
directory can be deleted wholesale at any time.

Writes are atomic (``os.replace`` of a per-process temp file), so
concurrent workers racing to store the same key are safe: last writer
wins and both wrote identical bytes anyway.

The cache can be bounded: with ``max_bytes`` set (or the
``REPRO_SWEEP_CACHE_MAX`` environment variable), every ``put`` prunes
least-recently-*used* entries — ``get`` refreshes an entry's mtime, so
recency means reads, not just writes — until the directory fits.
``stats()`` and ``gc()`` back the ``repro cache`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings
from typing import Callable, Optional, Union

#: Default cache location (relative to the current directory); override
#: per call or with the ``REPRO_SWEEP_CACHE`` environment variable.
DEFAULT_CACHE_DIR = ".sweep-cache"

_code_version: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Computed once per process.  Cached sweep results embed this hash in
    their key, so editing any simulator module orphans old entries
    instead of serving results the current code would not reproduce.
    """
    global _code_version
    if _code_version is None:
        import repro
        pkg = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()
    return _code_version


def content_key(payload: dict) -> str:
    """SHA-256 of a JSON-serializable payload, canonically encoded."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """A directory of ``<key>.json`` result files.

    The cache is strictly best-effort: a corrupt, truncated, or
    unreadable entry is a *miss with a warning note*, and a failed write
    is a *note*, never an exception that aborts the sweep.  ``on_warning``
    receives those notes (e.g. the sweep's progress callback); when None
    they go through :mod:`warnings` so they still surface somewhere.
    """

    def __init__(self,
                 directory: Union[str, pathlib.Path, None] = None,
                 on_warning: Optional[Callable[[str], None]] = None,
                 max_bytes: Optional[int] = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_SWEEP_CACHE",
                                       DEFAULT_CACHE_DIR)
        if max_bytes is None:
            env = os.environ.get("REPRO_SWEEP_CACHE_MAX")
            max_bytes = int(env) if env else None
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.directory = pathlib.Path(directory)
        self.on_warning = on_warning
        self.max_bytes = max_bytes

    def _warn(self, message: str) -> None:
        if self.on_warning is not None:
            self.on_warning(message)
        else:
            warnings.warn(message, RuntimeWarning, stacklevel=3)

    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or None.  A corrupt or
        truncated file (e.g. from a killed process on a filesystem
        without atomic replace) reads as a miss with a warning note,
        never an error."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None  # the ordinary miss: silent
        except OSError as exc:
            self._warn(f"sweep cache: cannot read {path.name} "
                       f"({exc}); treating as a miss")
            return None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            self._warn(f"sweep cache: corrupt entry {path.name} "
                       f"({exc}); treating as a miss")
            return None
        if not isinstance(payload, dict):
            self._warn(f"sweep cache: entry {path.name} is not a result "
                       f"payload; treating as a miss")
            return None
        try:
            # Refresh the entry's mtime so LRU pruning sees reads as
            # uses, not only writes.  Best-effort: a read-only cache
            # still serves hits.
            os.utime(path)
        except OSError:
            pass
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a payload; atomic via ``os.replace``.  A failed write
        (full or read-only filesystem) warns instead of raising — the
        sweep's result matters more than its cache."""
        tmp = self.directory / f".{key}.{os.getpid()}.tmp"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self.path_for(key))
        except OSError as exc:
            self._warn(f"sweep cache: could not store {key[:12]}… "
                       f"({exc}); result kept in memory only")
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            self.gc(self.max_bytes, keep=key)

    # -- bounding ------------------------------------------------------

    def _entries(self) -> "list[tuple[float, int, pathlib.Path]]":
        """(mtime, size, path) per entry, oldest first.  Entries that
        vanish mid-scan (a concurrent gc) are simply skipped."""
        entries = []
        try:
            paths = list(self.directory.glob("*.json"))
        except OSError:
            return []
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        return entries

    def stats(self) -> dict:
        """Entry count / byte total / bounds, for ``repro cache --stats``."""
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "oldest_mtime": entries[0][0] if entries else None,
            "newest_mtime": entries[-1][0] if entries else None,
        }

    def gc(self, max_bytes: Optional[int] = None,
           keep: Optional[str] = None) -> "tuple[int, int]":
        """Prune least-recently-used entries until the directory holds
        at most ``max_bytes`` (default: the cache's own bound).  The
        entry named by ``keep`` is never pruned — the result just
        stored must survive its own put.  Returns ``(removed entries,
        freed bytes)``; unlink errors are warnings, not failures."""
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            return (0, 0)
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= limit:
                break
            if keep is not None and path.name == f"{keep}.json":
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                total -= size
                continue
            except OSError as exc:
                self._warn(f"sweep cache: gc could not remove "
                           f"{path.name} ({exc})")
                continue
            total -= size
            removed += 1
            freed += size
        return (removed, freed)
