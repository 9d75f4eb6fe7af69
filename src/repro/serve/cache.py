"""Result cache and instance registry for the coloring service.

Caching colorings is sound because every pipeline in this repo is a
pure function of ``(instance, seed, parameters)`` — the determinism
contract the test suite and ``repro lint`` enforce.  The cache key is
therefore the canonical instance hash (:func:`repro.graphs.\
canonical_instance_hash`) joined with the method, seed, epsilon, any
result-shaping options, the ``telemetry`` flag and the result format
version; two requests with equal keys are entitled to byte-identical
results.

Two small pieces:

* :class:`ResultCache` — bounded in-memory LRU with hit/miss/eviction
  counters and an optional on-disk spill directory.  Disk entries
  survive restarts and LRU eviction; a memory miss that lands on disk
  is promoted back and still counts as a hit.  Entries live under
  ``v<RESULT_FORMAT>/``; opening a cache deletes those an earlier
  result format left.
* :class:`InstanceRegistry` — bounded LRU of instance records (the
  frozen adjacency, see :class:`~repro.serve.protocol.InstanceRecord`)
  keyed by canonical hash, so clients upload a graph once (``register``
  op, or implicitly on the first inline ``color``) and then send
  requests that are a few dozen bytes.
* :class:`PreparedCache` — what batches derive from a registered
  record (the validated network structure, the ACD), kept per worker
  process so later batches on the same hash skip that work.  It follows
  the registry: an instance the registry forgot is dropped after the
  next batch.

The disk tier is multi-writer safe: every write goes to a per-process
temporary name and is published with an atomic ``rename``.  In the
sharded fleet all shards point at one ``disk_dir``; two shards racing
on the same key write *byte-identical* content (results are pure
functions of the key), so last-rename-wins is indistinguishable from a
single writer.  ``disk_max_bytes`` bounds the directory: ``put``
prunes oldest-mtime entries past the cap, and because pruning only ever
``unlink``\\ s published files, a concurrent reader either sees a whole
entry or a miss — never a torn one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, Generic, TypeVar

if TYPE_CHECKING:
    from repro.serve.protocol import InstanceRecord

__all__ = [
    "InstanceRegistry",
    "PreparedCache",
    "RESULT_FORMAT",
    "ResultCache",
    "make_cache_key",
]


#: Version of the cached ``color`` result's shape.  Bump it with every
#: change to that shape: version 2 added ``shattering`` and the
#: ``telemetry`` flag.
RESULT_FORMAT = 2

#: The file name of a disk entry: its cache key.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def make_cache_key(
    instance_hash: str,
    method: str,
    seed: int | None,
    epsilon: float,
    options: dict[str, Any] | None = None,
    *,
    telemetry: bool = False,
) -> str:
    """Canonical cache key for one coloring computation.

    The key carries :data:`RESULT_FORMAT`, so an entry a disk tier kept
    from an earlier result shape misses instead of answering.
    """
    payload = {
        "format": RESULT_FORMAT,
        "instance": instance_hash,
        "method": method,
        "seed": seed,
        "epsilon": epsilon,
        "options": dict(sorted((options or {}).items())),
        "telemetry": telemetry,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """LRU result cache with counters and optional disk spill.

    ``capacity`` bounds the in-memory entry count (``0`` disables the
    cache entirely: every lookup is a miss and nothing is stored).
    ``disk_dir``, when set, persists every stored entry as
    ``v<RESULT_FORMAT>/<key>.json`` (under :attr:`entry_dir`) so results
    outlive both eviction and the process.
    ``disk_max_bytes`` caps the total size of those files; ``put``
    prunes oldest-mtime entries until the directory fits again.
    """

    def __init__(
        self,
        capacity: int,
        *,
        disk_dir: str | Path | None = None,
        disk_max_bytes: int | None = None,
    ):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if disk_max_bytes is not None and disk_max_bytes < 1:
            raise ValueError(
                f"disk_max_bytes must be >= 1, got {disk_max_bytes}"
            )
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.disk_max_bytes = disk_max_bytes
        self.entry_dir: Path | None = None
        if self.disk_dir is not None:
            self.entry_dir = self.disk_dir / f"v{RESULT_FORMAT}"
            self.entry_dir.mkdir(parents=True, exist_ok=True)
            self._remove_stale(self.disk_dir)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_evictions = 0
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up a result; LRU-touches on hit, falls back to disk."""
        if self.capacity == 0:
            self.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._load_from_disk(key)
        if entry is not None:
            self.hits += 1
            self.disk_hits += 1
            self._store_memory(key, entry)
            return entry
        self.misses += 1
        return None

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Store a result (memory LRU + disk when configured)."""
        if self.entry_dir is not None:
            path = self.entry_dir / f"{key}.json"
            # Per-process temp name: concurrent shards writing the same
            # key never interleave inside one file; the rename publishes
            # a whole entry (see the module docstring).
            tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(value, separators=(",", ":")))
            tmp.replace(path)
            if self.disk_max_bytes is not None:
                self.prune()
        if self.capacity > 0:
            self._store_memory(key, value)

    def prune(self, max_bytes: int | None = None) -> int:
        """Delete oldest-mtime disk entries past the byte cap.

        Returns the number of files removed.  ``max_bytes`` overrides
        the configured ``disk_max_bytes`` for this call (useful for
        operator-driven shrinking); no-op when the cache has no disk
        tier or no cap is in effect.
        """
        cap = max_bytes if max_bytes is not None else self.disk_max_bytes
        if self.entry_dir is None or cap is None:
            return 0
        entries: list[tuple[float, str, Path, int]] = []
        total = 0
        for path in self.entry_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # pruned by a sibling shard between glob and stat
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
            total += stat.st_size
        removed = 0
        entries.sort()  # oldest mtime first; name breaks ties
        for _, _, path, size in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                pass  # already gone: a sibling pruned it — still freed
            total -= size
            removed += 1
            self.disk_evictions += 1
        return removed

    def disk_usage(self) -> tuple[int, int]:
        """Current ``(files, bytes)`` of the disk tier (``(0, 0)`` when
        disabled)."""
        if self.entry_dir is None:
            return 0, 0
        files = 0
        total = 0
        for path in self.entry_dir.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            files += 1
        return files, total

    def stats(self) -> dict[str, int]:
        out = {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
        }
        if self.disk_dir is not None:
            files, total = self.disk_usage()
            out["disk_files"] = files
            out["disk_bytes"] = total
            out["disk_evictions"] = self.disk_evictions
        return out

    def _remove_stale(self, root: Path) -> None:
        """Delete the entries earlier result formats left under ``root``:
        key-named files at the top and in other ``v<N>/`` directories."""
        for directory in [root, *root.glob("v[0-9]*")]:
            if directory == self.entry_dir:
                continue
            for path in directory.glob("*.json"):
                if _ENTRY_NAME.fullmatch(path.name):
                    path.unlink(missing_ok=True)
            with contextlib.suppress(OSError):
                directory.rmdir()  # only an emptied ``v<N>/`` goes

    def _store_memory(self, key: str, value: dict[str, Any]) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _load_from_disk(self, key: str) -> dict[str, Any] | None:
        if self.entry_dir is None:
            return None
        path = self.entry_dir / f"{key}.json"
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            # A torn write from a previous crash; treat as absent.
            return None
        return entry if isinstance(entry, dict) else None


class InstanceRegistry:
    """Bounded LRU of instance records keyed by canonical hash."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"registry capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._records: OrderedDict[str, InstanceRecord] = OrderedDict()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, instance_hash: str) -> bool:
        return instance_hash in self._records

    def hashes(self) -> frozenset[str]:
        """The hashes held right now (what a batch may keep prepared)."""
        return frozenset(self._records)

    def get(self, instance_hash: str) -> InstanceRecord | None:
        record = self._records.get(instance_hash)
        if record is not None:
            self._records.move_to_end(instance_hash)
        return record

    def put(self, instance_hash: str, record: InstanceRecord) -> None:
        self._records[instance_hash] = record
        self._records.move_to_end(instance_hash)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.evictions += 1


T = TypeVar("T")


class PreparedCache(Generic[T]):
    """Per-instance products shared across batches, keyed by canonical hash.

    Content-addressed, so every batch and every server in a process may
    share an entry: equal hashes mean equal instances.  It has no bound
    of its own.  After each batch the executor calls :meth:`retain` with
    the hashes its server's :class:`InstanceRegistry` holds, so the
    cache never holds more instances than the registry and forgets one
    when the registry does.  Thread-safe: in-process (``jobs=0``)
    servers run batches on executor threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, T] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, instance_hash: str, build: Callable[[], T]) -> tuple[T, bool]:
        """The entry for ``instance_hash``, built on a miss.

        Returns ``(entry, built)``.  A ``build`` that raises stores
        nothing.  Building holds the lock, so two batches never build
        the same instance twice.
        """
        with self._lock:
            entry = self._entries.get(instance_hash)
            if entry is not None:
                return entry, False
            entry = self._entries[instance_hash] = build()
            return entry, True

    def retain(self, hashes: Collection[str]) -> None:
        """Drop every entry whose hash is not in ``hashes``."""
        with self._lock:
            for instance_hash in [h for h in self._entries if h not in hashes]:
                del self._entries[instance_hash]

    def reset(self) -> None:
        """Forget everything, without taking the lock.

        For a forked child: the lock may have been held by a thread of
        the parent that does not exist in the child.
        """
        self._lock = threading.Lock()
        self._entries = {}
