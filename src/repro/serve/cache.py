"""Content-addressed synthesis result cache.

The synthesis flow is deterministic for a fixed submission, so a
result is fully identified by its submission's content address
(:mod:`repro.core.digest`).  The cache maps that key to the canonical
result-document *text* produced by the first execution: a hit replays
the original result byte for byte, which is the service's cache
contract (``"cached": true`` responses are indistinguishable from the
original run's ``result`` object).

Storage is one file per entry under ``<root>/<key>.json``, written
atomically (temp file + :func:`os.replace`) so a crash mid-write can
never leave a half-result a later boot would serve.  A warm in-memory
mirror makes repeat hits microsecond-fast; cold hits (after a restart)
read the file once and re-warm.

Hit/miss counters live on the instance; the server republishes them as
``serve.cache_hits`` / ``serve.cache_misses`` counters and in
``GET /stats``.

With a *limit*, the cache evicts least-recently-used entries
(LRU-by-mtime: every hit — memory-warm or disk-cold — touches the
entry file's mtime) once a :meth:`put` pushes the entry count over the
bound.  Recency is recorded only while a limit is set: nothing reads
the mtime otherwise, so an unlimited cache spends no syscall on a hit,
and entries hit while the server ran without a limit age from their
write time.  Eviction only ever forgets a *reproducible* value: the
flow is deterministic, so a re-request of an evicted entry
re-synthesizes the byte-identical result text and re-caches it.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable

__all__ = ["ResultCache"]

#: Characters allowed in cache keys (hex digests plus the lowercase
#: algorithm namespace prefix) — anything else would risk path games.
_KEY_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


class ResultCache:
    """Disk-backed, memory-mirrored map of content key -> result text."""

    def __init__(
        self,
        root: str | Path,
        limit: int | None = None,
        on_evict: Callable[[int], None] | None = None,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"cache limit must be >= 1, got {limit}")
        self.root = Path(root)
        self.limit = limit
        self.on_evict = on_evict
        self._memory: dict[str, str] = {}
        #: Keys known to exist on disk.  The cache directory is owned
        #: exclusively by this instance's process, so the index only
        #: changes through :meth:`put`, eviction and failed reads —
        #: misses then cost one set lookup instead of a filesystem
        #: probe (measurable on the service accept path, where every
        #: fresh submission misses), and :meth:`entries` is its size.
        self._known: set[str] = set()
        try:
            with os.scandir(self.root) as entries:
                self._known = {
                    entry.name[: -len(".json")]
                    for entry in entries
                    if entry.name.endswith(".json")
                }
        except OSError:
            pass
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _touch(self, key: str) -> None:
        """Refresh the entry's mtime — the LRU recency signal, read
        only by eviction, so a no-op without a limit."""
        if self.limit is None:
            return
        try:
            os.utime(self._path(key))
        except OSError:
            pass

    @staticmethod
    def _check_key(key: str) -> str:
        if not key or not set(key) <= _KEY_CHARS:
            raise ValueError(f"invalid cache key: {key!r}")
        return key

    def _path(self, key: str) -> Path:
        return self.root / f"{self._check_key(key)}.json"

    def get(self, key: str) -> str | None:
        """The cached result text for *key*, or ``None`` (counted)."""
        self._check_key(key)
        with self._lock:
            text = self._memory.get(key)
            if text is not None:
                self.hits += 1
                self._touch(key)
                return text
            known = key in self._known
        text = None
        if known:
            try:
                text = self._path(key).read_text(encoding="utf-8")
            except OSError:
                text = None
        with self._lock:
            if text is not None:
                self._memory[key] = text
                self.hits += 1
                self._touch(key)
            else:
                self._known.discard(key)
                self.misses += 1
        return text

    def peek(self, key: str) -> str | None:
        """Read *key* without touching the hit/miss counters.

        Status endpoints use this: retrieving an already-delivered
        result is not a cache decision and must not skew the ratio.
        """
        self._check_key(key)
        with self._lock:
            text = self._memory.get(key)
            if text is None and key not in self._known:
                return None
        if text is not None:
            return text
        try:
            text = self._path(key).read_text(encoding="utf-8")
        except OSError:
            with self._lock:
                self._known.discard(key)
            return None
        with self._lock:
            self._memory[key] = text
        return text

    def contains(self, key: str) -> bool:
        """Presence probe that does not touch the hit/miss counters."""
        with self._lock:
            if key in self._memory:
                return True
        return self._path(key).exists()

    def put(self, key: str, text: str) -> None:
        """Store *text* under *key* (atomic; last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
        with self._lock:
            self._memory[key] = text
            self._known.add(key)
            if self.limit is not None:
                self._evict_locked(keep=key)

    def _evict_locked(self, keep: str) -> None:
        """Drop oldest-mtime entries until the count fits the limit."""
        assert self.limit is not None
        try:
            candidates = [
                (path.stat().st_mtime, path)
                for path in self.root.glob("*.json")
            ]
        except OSError:  # pragma: no cover - directory races
            return
        excess = len(candidates) - self.limit
        if excess <= 0:
            return
        candidates.sort()
        evicted = 0
        for _, path in candidates:
            if evicted >= excess:
                break
            key = path.stem
            if key == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            self._memory.pop(key, None)
            self._known.discard(key)
            evicted += 1
        self.evictions += evicted
        if evicted and self.on_evict is not None:
            self.on_evict(evicted)

    def entries(self) -> int:
        """Number of entries on disk, counted from the index (rebuilt
        by a directory scan at boot) rather than by globbing."""
        return len(self._known)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._known),
                "warm": len(self._memory),
                "evictions": self.evictions,
                "limit": self.limit,
            }
