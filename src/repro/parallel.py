"""Worker-pool plumbing for the sharded experiment sweeps (fig10–12);
nothing under ``core/``, ``routing/`` or ``lp/`` uses it.

One knob controls everything: the ``REPRO_WORKERS`` environment
variable (or an explicit ``workers=`` argument, which wins). The
resolution heuristic is deliberately conservative — parallelism only
engages when the caller has more than one independent task and more
than one core is available, so small problems keep their serial
(zero-overhead, trivially deterministic) code path.

Process pools are preferred because the solver hot loops are largely
Python (GIL-bound); the ``fork`` start method is used when the platform
offers it so workers inherit the topology without re-importing the
world. Environments where process pools cannot start (restricted
sandboxes) fall back to threads, and ultimately the callers themselves
fall back to serial execution.

This module also owns the **shared-memory plane**: :class:`ShmArena`
packs a set of named numpy arrays into one
:mod:`multiprocessing.shared_memory` segment behind a version-stamped
header, so sweep payloads can ship a segment *name* (a few bytes)
instead of pickling megabytes of topology arrays to every worker.
Attaches are zero-copy (numpy views straight into the mapped segment)
and cached per process; creators register crash-safe finalizers so an
abandoned arena is unlinked at interpreter shutdown even when the
owning sweep never reached its cleanup path.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import pickle
import secrets
import struct
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import ReproError

#: Environment variable consulted when no explicit worker count is given.
ENV_WORKERS = "REPRO_WORKERS"

T = TypeVar("T")


class ParallelismError(ReproError):
    """Raised for malformed worker configuration (e.g. REPRO_WORKERS=x)."""


class ShmArenaError(ReproError):
    """Raised for shared-memory arena failures: attaching to a missing
    or foreign segment, or a version-stamp mismatch."""


def resolve_workers(
    workers: Optional[int] = None, task_count: Optional[int] = None
) -> int:
    """Resolve the effective worker count (always >= 1).

    Priority: explicit ``workers`` argument > ``REPRO_WORKERS``
    environment variable > ``os.cpu_count()``. The result is clamped to
    ``task_count`` — there is no point spawning more workers than
    independent tasks.
    """
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError:
                raise ParallelismError(
                    f"{ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    workers = max(int(workers), 1)
    if task_count is not None:
        workers = min(workers, max(int(task_count), 1))
    return workers


def make_executor(workers: int, kind: str = "process") -> Executor:
    """Build an executor; ``kind`` is ``"process"`` (default) or
    ``"thread"``. Process pools prefer the ``fork`` start method."""
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    if kind != "process":
        raise ParallelismError(f"unknown executor kind {kind!r}")
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, PermissionError, ValueError):
        # Pool machinery unavailable (restricted sandbox): degrade to
        # threads — correctness is unaffected, only speed.
        return ThreadPoolExecutor(max_workers=workers)


# -- shared-memory arenas -----------------------------------------------------------

#: Magic prefix identifying a segment as a repro arena (8 bytes).
_SHM_MAGIC = b"DUSTSHM1"
#: Fixed-size prefix: magic + little-endian uint64 header length.
_SHM_PREFIX = struct.Struct("<8sQ")
#: Payload arrays start on this alignment inside the segment.
_SHM_ALIGN = 64

#: Process-wide arena cache keyed by segment name. The creator
#: registers itself here, so in-process resolution (serial fallbacks)
#: and fork-inherited workers never re-attach; spawn-style workers fall
#: through to a real zero-copy attach. Entries are dropped on unlink.
_ARENA_CACHE: Dict[str, "ShmArena"] = {}

#: Monotonic default version stamp for arenas created in this process.
_ARENA_VERSIONS = itertools.count(1)


def _align(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN


def _tracker_unregister(shm: shared_memory.SharedMemory) -> None:
    """Opt ``shm`` out of the multiprocessing resource tracker.

    Arena lifetime is managed explicitly (owner unlink + pid-guarded
    finalizer backstop); tracker entries misfire in both directions — a
    standalone attacher's tracker would unlink a segment its owner
    still serves at attacher exit, and owner + attacher sharing one
    (fork-inherited) tracker daemon double-unregister into daemon
    tracebacks."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker impl detail
        pass


def _raw_unlink(shm: shared_memory.SharedMemory) -> None:
    """Remove the segment name without touching the resource tracker
    (which :func:`_tracker_unregister` already released). Idempotent."""
    try:
        from multiprocessing.shared_memory import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except FileNotFoundError:
        pass
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _arena_finalize(shm: shared_memory.SharedMemory, owner_pid: Optional[int]) -> None:
    """Finalizer body: close the mapping, and unlink iff this process
    created the segment. The pid guard matters under ``fork`` — workers
    inherit the parent's finalizer registry, and a worker exiting must
    not tear down a segment the parent still serves."""
    try:
        shm.close()
    except OSError:  # pragma: no cover - mapping already gone
        pass
    if owner_pid is not None and owner_pid == os.getpid():
        _raw_unlink(shm)


class ShmArena:
    """One shared-memory segment holding named numpy arrays.

    Layout: ``[8-byte magic][uint64 header length][JSON header]`` then
    the array payloads, each 64-byte aligned. The header records the
    arena ``version`` stamp plus per-array name/dtype/shape/offset, so
    an attach is self-describing: no pickled metadata rides along with
    the segment name.

    Lifecycle: the **creator** owns the segment and is responsible for
    :meth:`unlink`; a crash-safe ``weakref.finalize`` backstop unlinks
    at interpreter shutdown if the owner never did (guarded by pid so
    forked workers cannot destroy their parent's segments).
    **Attachers** only map the segment; their views stay valid for the
    arena's lifetime because the arena object keeps the mapping open.
    POSIX semantics make unlink safe while mappings exist: the name
    disappears immediately, the memory only once the last mapping
    closes.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        version: int,
        arrays: Dict[str, np.ndarray],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.version = int(version)
        self.arrays = arrays
        self.owner = owner
        self._unlinked = False
        self._finalizer = weakref.finalize(
            self, _arena_finalize, shm, os.getpid() if owner else None
        )

    # -- construction ------------------------------------------------------------
    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        version: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "ShmArena":
        """Pack ``arrays`` into a fresh segment and return the owning
        arena (registered in the in-process cache)."""
        from repro.obs import get_registry

        version = next(_ARENA_VERSIONS) if version is None else int(version)
        packed = {key: np.ascontiguousarray(value) for key, value in arrays.items()}
        entries = []
        offset = 0  # relative to the payload base; rebased after the header
        for key, arr in packed.items():
            offset = _align(offset)
            entries.append(
                {
                    "name": key,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                }
            )
            offset += arr.nbytes
        header = json.dumps({"version": version, "arrays": entries}).encode()
        base = _align(_SHM_PREFIX.size + len(header))
        total = max(base + offset, 1)
        shm_name = name or f"repro-{os.getpid()}-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=shm_name, create=True, size=total)
        _tracker_unregister(shm)
        _SHM_PREFIX.pack_into(shm.buf, 0, _SHM_MAGIC, len(header))
        shm.buf[_SHM_PREFIX.size : _SHM_PREFIX.size + len(header)] = header
        views: Dict[str, np.ndarray] = {}
        for entry, arr in zip(entries, packed.values()):
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=base + entry["offset"]
            )
            view[...] = arr
            view.setflags(write=False)
            views[entry["name"]] = view
        arena = cls(shm, version, views, owner=True)
        _ARENA_CACHE[shm.name] = arena
        registry = get_registry()
        registry.counter("parallel.shm_creates").inc()
        registry.counter("parallel.shm_bytes_shared").inc(total)
        return arena

    @classmethod
    def attach(cls, name: str, expected_version: Optional[int] = None) -> "ShmArena":
        """Map an existing segment zero-copy.

        Raises :class:`ShmArenaError` when the segment does not exist,
        is not a repro arena, or carries a different version stamp than
        ``expected_version`` — the stale-reader guard that keeps a
        worker from pricing against wiring from another publication.
        """
        from repro.obs import get_registry

        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            raise ShmArenaError(f"shared-memory segment {name!r} does not exist") from None
        _tracker_unregister(shm)
        try:
            magic, header_len = _SHM_PREFIX.unpack_from(shm.buf, 0)
            if magic != _SHM_MAGIC:
                raise ShmArenaError(
                    f"segment {name!r} is not a repro arena (bad magic {magic!r})"
                )
            header = json.loads(
                bytes(shm.buf[_SHM_PREFIX.size : _SHM_PREFIX.size + header_len])
            )
            version = int(header["version"])
            if expected_version is not None and version != expected_version:
                raise ShmArenaError(
                    f"arena {name!r} holds version {version}, expected "
                    f"{expected_version} — the publisher re-exported, re-resolve "
                    f"the handle"
                )
            base = _align(_SHM_PREFIX.size + header_len)
            views: Dict[str, np.ndarray] = {}
            for entry in header["arrays"]:
                view = np.ndarray(
                    tuple(entry["shape"]),
                    dtype=np.dtype(entry["dtype"]),
                    buffer=shm.buf,
                    offset=base + entry["offset"],
                )
                view.setflags(write=False)
                views[entry["name"]] = view
        except ShmArenaError:
            shm.close()
            raise
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            shm.close()
            raise ShmArenaError(f"segment {name!r} has a corrupt arena header: {exc}") from None
        arena = cls(shm, version, views, owner=False)
        get_registry().counter("parallel.shm_attaches").inc()
        return arena

    # -- queries -----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def __repr__(self) -> str:
        return (
            f"ShmArena({self.name!r}, version={self.version}, "
            f"arrays={len(self.arrays)}, owner={self.owner})"
        )

    # -- lifecycle ---------------------------------------------------------------
    @property
    def linked(self) -> bool:
        """Whether this arena still owns a live name under ``/dev/shm``."""
        return self.owner and not self._unlinked

    def unlink(self) -> None:
        """Remove the segment name (idempotent). Existing mappings —
        this arena's views, fork-inherited copies in live workers, and
        in-process cache hits through :func:`attach_shared` — stay
        valid; only *new* attaches by name stop working. The arena
        therefore stays registered in the cache until :meth:`close`, so
        a serial fallback running after cleanup still resolves."""
        from repro.obs import get_registry

        if self._unlinked:
            return
        self._unlinked = True
        _raw_unlink(self._shm)
        get_registry().counter("parallel.shm_unlinks").inc()

    def close(self) -> None:
        """Drop this process's mapping (views become invalid). The
        owner's unlink duty is discharged first when still pending."""
        if self.owner:
            self.unlink()
        _ARENA_CACHE.pop(self.name, None)
        self._finalizer.detach()
        self.arrays = {}
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - already closed
            pass


def attach_shared(name: str, expected_version: Optional[int] = None) -> ShmArena:
    """Resolve an arena by segment name through the in-process cache.

    Creators and fork-inherited workers hit the cache (no syscall, no
    new mapping — and still correct after the owner unlinks, because
    the inherited mapping outlives the name). Fresh processes attach
    once and cache the mapping for every later payload that names the
    same segment.
    """
    cached = _ARENA_CACHE.get(name)
    if cached is not None:
        if expected_version is not None and cached.version != expected_version:
            raise ShmArenaError(
                f"arena {name!r} holds version {cached.version}, expected "
                f"{expected_version}"
            )
        return cached
    arena = ShmArena.attach(name, expected_version)
    _ARENA_CACHE[name] = arena
    return arena


def active_arena_segments() -> Tuple[str, ...]:
    """Names of arenas this process created that are still linked under
    ``/dev/shm`` (tests use this to assert leak-freedom)."""
    return tuple(sorted(n for n, a in _ARENA_CACHE.items() if a.linked))


def _unlink_arenas(arenas: Sequence[ShmArena]) -> None:
    for arena in arenas:
        arena.unlink()


def _call_with_metrics(args):
    """Worker-side shim: run one task and capture the registry delta it
    produced, so the parent can fold worker metrics back in."""
    fn, payload = args
    from repro.obs import get_registry

    registry = get_registry()
    baseline = registry.snapshot()
    result = fn(payload)
    return result, registry.collect_delta(baseline)


def map_with_pool_retry(
    fn: Callable[..., T],
    payloads: Sequence,
    workers: int,
    kind: str = "process",
    collect_metrics: bool = False,
    arenas: Sequence[ShmArena] = (),
) -> Optional[List[T]]:
    """``pool.map`` that survives worker death.

    A ``BrokenProcessPool`` (a worker was OOM-killed or segfaulted)
    poisons the whole executor, so the pending round would otherwise
    crash with it. This helper rebuilds the pool once and replays the
    full payload list — tasks are pure functions of their payloads, so
    a replay is safe. Returns ``None`` when the retry also fails (or
    the pool cannot run at all): callers keep their existing serial
    fallback, which is always correct, just slower.

    ``arenas`` names the shared-memory segments the payloads reference.
    The moment a pool breaks, this helper unlinks them — a killed worker
    cannot run its own cleanup, and an abandoned name under ``/dev/shm``
    would outlive the sweep. Unlinking is safe mid-retry: the rebuilt
    (fork) workers inherit the parent's still-valid mapping through the
    arena cache, and the caller's own ``finally``-unlink stays a no-op
    (:meth:`ShmArena.unlink` is idempotent). On a clean first run the
    arenas are left linked for the caller to manage.

    With ``collect_metrics=True`` each task also snapshots the worker's
    :mod:`repro.obs` registry before/after and ships the delta home;
    the parent merges deltas whose pid differs from its own. (The pid
    guard matters: when :func:`make_executor` silently degrades to
    threads, the "workers" share the parent registry and their
    increments already landed — merging the delta again would double
    count.)
    """
    if collect_metrics:
        call: Callable = _call_with_metrics
        items: Sequence = [(fn, payload) for payload in payloads]
    else:
        call, items = fn, payloads
    for attempt in range(2):
        try:
            with make_executor(workers, kind) as pool:
                results = list(pool.map(call, items))
            if not collect_metrics:
                return results
            from repro.obs import get_registry

            registry = get_registry()
            own_pid = os.getpid()
            unpacked: List[T] = []
            for result, delta in results:
                if delta.get("pid") != own_pid:
                    registry.merge_delta(delta)
                unpacked.append(result)
            return unpacked
        except BrokenExecutor:
            # Worker death; one rebuild, then give up to the caller.
            # (Must precede RuntimeError: BrokenExecutor subclasses it.)
            _unlink_arenas(arenas)
            if attempt == 1:
                return None
        except (OSError, PermissionError, RuntimeError, pickle.PicklingError):
            _unlink_arenas(arenas)
            return None
    return None


def chunk_evenly(items: Sequence[T], chunks: int) -> List[List[T]]:
    """Split ``items`` into at most ``chunks`` contiguous, near-equal
    pieces (no empty chunks); order is preserved across the
    concatenation of the result."""
    n = len(items)
    chunks = max(1, min(int(chunks), n))
    base, extra = divmod(n, chunks)
    out: List[List[T]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out
