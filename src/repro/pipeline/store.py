"""Two-tier artifact store: in-memory LRU over an on-disk cache.

Lookup order is memory, then disk, then miss; every tier is keyed by
``(stage, fingerprint)`` where the fingerprint is content-addressed
(:mod:`repro.pipeline.fingerprint`), so a cached artifact can never be
served for a different configuration — a config change changes the key.

The disk layer lives under ``$REPRO_CACHE_DIR`` (or
``~/.cache/repro-spd`` when unset; set ``REPRO_CACHE_DIR=`` empty to
disable it).  Entries are pickle files written atomically — serialise
to a temporary file in the destination directory, then ``os.replace``
— so concurrent writers (parallel workers, overlapping CLI runs) can
only ever observe complete entries.  Reads are defensive: anything that
fails to unpickle, carries the wrong pipeline-version salt, or has an
unexpected layout is silently deleted and treated as a miss, which
causes the stage to rebuild and overwrite it.

Entries live under ``root/<stage>/<fingerprint[:2]>/<fingerprint>.pkl``.
Each ``(stage, prefix)`` shard directory has a lock, so threads sharing
one store never interleave disk accesses to one shard; across
processes, the atomic renames are what keep the directory safe.

``size_budget_bytes`` bounds the on-disk footprint.  A budgeted store
refreshes an entry's mtime whenever it reads it, and every
:data:`BUDGET_CHECK_INTERVAL` disk puts it evicts the oldest-mtime
entries until the footprint fits (:meth:`ArtifactStore.enforce_budget`
runs the same sweep on demand).  The sweep runs in the process that
writes the entries; an eviction is one ``unlink`` of a complete entry,
so it is crash-safe and a reader racing it just sees a miss.

Cache traffic is observable through ``repro.obs``:
``pipeline.cache_hits.mem`` / ``pipeline.cache_hits.disk`` /
``pipeline.cache_misses`` globally, plus per-stage
``pipeline.<stage>.cache_hits`` / ``pipeline.<stage>.cache_misses``;
budget sweeps count ``pipeline.shard.evictions`` and set the
``pipeline.shard.bytes`` gauge.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import obs
from .fingerprint import PIPELINE_VERSION

__all__ = ["ArtifactStore", "BUDGET_CHECK_INTERVAL", "default_cache_dir"]

#: Disk puts between a budgeted store's budget sweeps.
BUDGET_CHECK_INTERVAL = 64

#: Sentinel: "resolve the cache directory from the environment".
_FROM_ENV = object()


def default_cache_dir() -> Optional[Path]:
    """``$REPRO_CACHE_DIR`` (empty string disables the disk tier) or
    ``~/.cache/repro-spd``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro-spd"


class ArtifactStore:
    """In-memory LRU in front of an on-disk pickle cache.

    ``root=None`` disables the disk tier (memory-only store); by
    default the root is resolved from the environment at construction
    time (see :func:`default_cache_dir`).  ``size_budget_bytes`` (None =
    unbounded) is the LRU byte budget of the disk tier.
    """

    def __init__(self, root=_FROM_ENV, max_memory_entries: int = 1024,
                 size_budget_bytes: Optional[int] = None):
        if root is _FROM_ENV:
            root = default_cache_dir()
        if size_budget_bytes is not None and size_budget_bytes < 0:
            raise ValueError("size_budget_bytes must be >= 0 (or None)")
        self.root: Optional[Path] = Path(root) if root is not None else None
        self.max_memory_entries = max_memory_entries
        self.size_budget_bytes = size_budget_bytes
        self._memory: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._shard_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._puts_since_check = 0

    # -- lookup --------------------------------------------------------------

    def get(self, stage: str, fingerprint: str):
        """The cached artifact, or ``None`` (emits hit/miss counters)."""
        key = (stage, fingerprint)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            obs.incr("pipeline.cache_hits.mem")
            obs.incr(f"pipeline.{stage}.cache_hits")
            return cached
        cached = self._disk_get(stage, fingerprint)
        if cached is not None:
            self._memory_put(key, cached)
            obs.incr("pipeline.cache_hits.disk")
            obs.incr(f"pipeline.{stage}.cache_hits")
            return cached
        obs.incr("pipeline.cache_misses")
        obs.incr(f"pipeline.{stage}.cache_misses")
        return None

    def put(self, stage: str, fingerprint: str, artifact) -> None:
        """Insert into both tiers (disk write is atomic, best-effort)."""
        self._memory_put((stage, fingerprint), artifact)
        self._disk_put(stage, fingerprint, artifact)

    def put_memory(self, stage: str, fingerprint: str, artifact) -> None:
        """Insert into the memory tier only (e.g. results shipped back
        from parallel workers, which already wrote the disk entry)."""
        self._memory_put((stage, fingerprint), artifact)

    # -- memory tier ---------------------------------------------------------

    def _memory_put(self, key: Tuple[str, str], artifact) -> None:
        self._memory[key] = artifact
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk tier -----------------------------------------------------------

    def _path(self, stage: str, fingerprint: str) -> Path:
        return self.root / stage / fingerprint[:2] / f"{fingerprint}.pkl"

    def _shard_lock(self, stage: str, fingerprint: str) -> threading.Lock:
        key = (stage, fingerprint[:2])
        lock = self._shard_locks.get(key)
        if lock is None:
            with self._locks_guard:
                lock = self._shard_locks.setdefault(key, threading.Lock())
        return lock

    def _disk_get(self, stage: str, fingerprint: str):
        if self.root is None:
            return None
        path = self._path(stage, fingerprint)
        with self._shard_lock(stage, fingerprint):
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                if (not isinstance(payload, dict)
                        or payload.get("version") != PIPELINE_VERSION):
                    raise ValueError("stale or malformed cache entry")
                artifact = payload["artifact"]
            except FileNotFoundError:
                return None
            except Exception:
                # corrupt, truncated or stale-version entry: drop and rebuild
                obs.incr("pipeline.cache_evicted")
                try:
                    os.unlink(path)
                except OSError:
                    pass
                return None
            if self.size_budget_bytes is not None:
                # refresh the mtime so the budget sweep sees the entry as hot
                try:
                    os.utime(path)
                except OSError:
                    pass
        return artifact

    def _disk_put(self, stage: str, fingerprint: str, artifact) -> None:
        if self.root is None:
            return
        path = self._path(stage, fingerprint)
        tmp_name = None
        with self._shard_lock(stage, fingerprint):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                                prefix=".tmp-")
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump({"version": PIPELINE_VERSION,
                                 "artifact": artifact},
                                handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
            except OSError:
                # a read-only or full cache dir degrades to memory-only
                obs.incr("pipeline.cache_errors")
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
        if self.size_budget_bytes is None:
            return
        self._puts_since_check += 1
        if self._puts_since_check >= BUDGET_CHECK_INTERVAL:
            self._puts_since_check = 0
            self.enforce_budget()

    # -- size budget ---------------------------------------------------------

    def _scan_entries(self) -> List[Tuple[float, int, Path, str, str]]:
        """Every complete entry file as (mtime, size, path, stage, shard)."""
        entries: List[Tuple[float, int, Path, str, str]] = []
        if self.root is None or not self.root.is_dir():
            return entries
        for stage_dir in self.root.iterdir():
            if not stage_dir.is_dir():
                continue
            for path in stage_dir.glob("*/*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # evicted or replaced under our feet
                entries.append((stat.st_mtime, stat.st_size, path,
                                stage_dir.name, path.parent.name))
        return entries

    def disk_usage_bytes(self) -> int:
        """Total size of all complete on-disk entries."""
        return sum(size for _, size, _, _, _ in self._scan_entries())

    def enforce_budget(self) -> int:
        """Evict least-recently-used entries until the on-disk footprint
        fits ``size_budget_bytes``; return the number evicted."""
        if self.root is None or self.size_budget_bytes is None:
            return 0
        entries = self._scan_entries()
        total = sum(size for _, size, _, _, _ in entries)
        evicted = 0
        for _, size, path, stage, shard in sorted(entries):
            if total <= self.size_budget_bytes:
                break
            with self._shard_lock(stage, shard):
                try:
                    os.unlink(path)
                except OSError:
                    continue
            # the memory tier may still hold the value; that is fine —
            # it is an LRU of its own and the disk copy can always be
            # rebuilt from a pipeline rerun
            total -= size
            evicted += 1
        if evicted:
            obs.incr("pipeline.shard.evictions", evicted)
        obs.set_gauge("pipeline.shard.bytes", total)
        return evicted

    def shard_stats(self) -> Dict[str, object]:
        """JSON-ready footprint summary for the service stats endpoint."""
        entries = self._scan_entries()
        per_stage: Dict[str, int] = {}
        for _, _, _, stage, _ in entries:
            per_stage[stage] = per_stage.get(stage, 0) + 1
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _, _, _ in entries),
            "budget_bytes": self.size_budget_bytes,
            "per_stage": dict(sorted(per_stage.items())),
        }
