"""Content-addressed on-disk result cache.

Five benchmark artifacts derive from the same factorial sweep, and
utilization sweeps re-probe the same (workload, util, seed) points
across CLI invocations — yet before this layer every invocation
re-simulated from scratch.  The cache keys completed
:class:`~repro.exec.spec.RunResult` values by the *content digest* of
the :class:`~repro.exec.spec.RunSpec` that produced them, so identical
experiments are simulated once per machine, ever.

Layout (one directory per entry, named by digest)::

    <root>/<dd>/<igest...>/
        meta.json      # version, digest, checksum, metrics, raw path
        outcome.pkl    # the full pickled RunResult
        raw.npy        # pooled raw latency samples, when kept

Invalidation is versioned: every entry records
``library-version:cache-schema:spec-schema``; a mismatch on read
deletes the entry and reports a miss, so stale results can never leak
across releases or semantic changes.  Writes are atomic (tmp dir +
rename), making the cache safe under concurrent producers.

Corruption is *contained*, never fatal: ``meta.json`` stores a SHA-256
checksum of ``outcome.pkl`` (schema 2), so bit-rot, torn writes, and
unpicklable payloads are all detected on read — the entry is moved to
``<root>/.quarantine/`` with a warning and the read counts as a miss,
preserving the executor invariant that a bad cache entry costs one
re-simulation, not a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .spec import SPEC_SCHEMA, RunResult, RunSpec
from .supervise import fire_hook

__all__ = ["CACHE_SCHEMA", "QUARANTINE_DIR", "cache_version", "ResultCache"]

#: Bump when the on-disk layout changes.
#: 2: ``meta.json`` gains ``"checksum"`` (SHA-256 of ``outcome.pkl``)
#:    so payload bit-rot is detected on read instead of trusted.
#: 3: ``RunResult`` gains ``group_metrics`` (scenario runs); pickles
#:    written before the field would unpickle without the attribute.
#: 4: ``RunResult`` gains ``guards`` (the validity audit) and
#:    ``InstanceReport`` gains the guard tape (``phase_windows`` /
#:    ``warmup_tail``).  Purely additive, so schema-3 entries written
#:    by the same library+spec schema stay *readable*: on read the
#:    missing attributes are backfilled with their defaults
#:    (``guards=None`` — un-audited), see ``_COMPATIBLE_SCHEMAS``.
CACHE_SCHEMA = 4

#: Older cache schemas whose pickles this version can still read
#: (additive field changes only).  The library and spec schema parts
#: of the version string must still match exactly.
_COMPATIBLE_SCHEMAS = ("3",)

#: Corrupt entries are moved here (under the cache root), not deleted:
#: forensically useful, and excluded from entry counts and ``clear()``.
QUARANTINE_DIR = ".quarantine"


def _library_version() -> str:
    try:  # local import to avoid a cycle at package-import time
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - defensive
        return "unknown"


def cache_version() -> str:
    """The invalidation key stored with every entry."""
    return f"{_library_version()}:{CACHE_SCHEMA}:{SPEC_SCHEMA}"


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _version_readable(stored: str) -> bool:
    """Whether an entry written under ``stored`` can still be read.

    Exact match always can; otherwise the library version and spec
    schema must match exactly and the cache schema must be one of the
    additive-only :data:`_COMPATIBLE_SCHEMAS`.
    """
    if stored == cache_version():
        return True
    parts = stored.rsplit(":", 2)
    if len(parts) != 3:
        return False
    lib, schema, spec_schema = parts
    return (
        lib == _library_version()
        and spec_schema == str(SPEC_SCHEMA)
        and schema in _COMPATIBLE_SCHEMAS
    )


def _backfill_additive_fields(outcome: RunResult) -> None:
    """Give pickles from compatible older schemas the new attributes.

    Old pickles restore ``__dict__`` directly, skipping ``__init__``,
    so fields added since the entry was written are simply absent.
    """
    if not hasattr(outcome, "guards"):
        outcome.guards = None
    if not hasattr(outcome, "group_metrics"):
        outcome.group_metrics = {}
    for report in getattr(outcome, "reports", ()) or ():
        if not hasattr(report, "phase_windows"):
            report.phase_windows = np.empty((0, 4), dtype=float)
        if not hasattr(report, "warmup_tail"):
            report.warmup_tail = np.empty(0, dtype=float)


class ResultCache:
    """Digest-keyed store of completed runs.

    Parameters
    ----------
    root:
        Cache directory (created on demand).
    injector:
        Optional fault injector (``repro.faults.FaultInjector``) whose
        ``fire("cache.put")`` / ``fire("cache.get")`` hooks let the
        chaos harness corrupt entries deterministically.  ``None`` in
        production — the hooks are no-ops.
    """

    def __init__(self, root: os.PathLike, injector: Optional[object] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.injector = injector
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _entry_dir(self, digest: str) -> Path:
        return self.root / digest[:2] / digest[2:]

    def _entries(self):
        """Live entry metas (the quarantine area is not an entry)."""
        for meta in self.root.glob("*/*/meta.json"):
            if QUARANTINE_DIR not in meta.parts:
                yield meta

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __contains__(self, spec: RunSpec) -> bool:
        return (self._entry_dir(spec.digest()) / "meta.json").exists()

    # ------------------------------------------------------------------
    def _quarantine(self, entry: Path, reason: str) -> None:
        """Move a corrupt entry aside (idempotent, best-effort)."""
        target = self.root / QUARANTINE_DIR / f"{entry.parent.name}{entry.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.exists():
                shutil.rmtree(target, ignore_errors=True)
            os.replace(entry, target)
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)
        self.quarantined += 1
        warnings.warn(
            f"quarantined corrupt cache entry {entry.parent.name}{entry.name}"
            f" ({reason}); treating as a miss",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on miss.

        Entries written by an older library/schema version are deleted
        on sight (versioned invalidation); corrupt or truncated
        entries — undecodable ``meta.json``, checksum mismatch,
        unpicklable ``outcome.pkl`` — are quarantined with a warning
        and reported as misses.  ``get`` never raises for on-disk
        state.
        """
        digest = spec.digest()
        entry = self._entry_dir(digest)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            self.misses += 1
            return None
        try:
            with open(meta_path) as f:
                meta = json.load(f)
            if not isinstance(meta, dict):
                raise ValueError("meta.json is not an object")
        except (OSError, ValueError):
            self._quarantine(entry, "corrupt meta.json")
            self.misses += 1
            return None
        if not _version_readable(str(meta.get("version", ""))):
            shutil.rmtree(entry, ignore_errors=True)
            self.misses += 1
            return None
        try:
            with open(entry / "outcome.pkl", "rb") as f:
                payload = f.read()
        except OSError:
            self._quarantine(entry, "unreadable outcome.pkl")
            self.misses += 1
            return None
        expected = str(meta.get("checksum", ""))
        if expected and _checksum(payload) != expected:
            self._quarantine(entry, "outcome.pkl checksum mismatch (bit-rot?)")
            self.misses += 1
            return None
        try:
            outcome: RunResult = pickle.loads(payload)
        except Exception:
            # Torn/corrupt/stale payload (including AttributeError from
            # renamed classes): contain it, report a miss.
            self._quarantine(entry, "unpicklable outcome.pkl")
            self.misses += 1
            return None
        _backfill_additive_fields(outcome)
        outcome.from_cache = True
        outcome.wall_s = 0.0
        self.hits += 1
        return outcome

    def put(self, spec: RunSpec, outcome: RunResult) -> Path:
        """Store ``outcome`` under ``spec``'s digest (atomic).

        Returns the entry directory.  A concurrent writer racing on the
        same digest is harmless: both write identical content and the
        loser's rename is discarded.
        """
        digest = spec.digest()
        entry = self._entry_dir(digest)
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(prefix=f".tmp-{digest[:8]}-", dir=self.root)
        )
        try:
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
            with open(tmp / "outcome.pkl", "wb") as f:
                f.write(payload)
            raw_name = None
            raw = outcome.raw_samples()
            if raw.size:
                raw_name = "raw.npy"
                np.save(tmp / raw_name, raw)
            meta = {
                "version": cache_version(),
                "digest": digest,
                "checksum": _checksum(payload),
                "spec": spec.describe(),
                "metrics": {repr(q): v for q, v in outcome.metrics.items()},
                "wall_s": outcome.wall_s,
                "events_processed": outcome.events_processed,
                "raw_path": raw_name,
                "stored_at": time.time(),
            }
            with open(tmp / "meta.json", "w") as f:
                json.dump(meta, f, indent=1, sort_keys=True)
            try:
                os.replace(tmp, entry)
            except OSError:
                # Non-empty target (concurrent writer won): keep theirs.
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.stores += 1
        action = fire_hook(self.injector, "cache.put")
        if action is not None and getattr(action, "kind", "") == "corrupt_cache_entry":
            self._corrupt_entry(entry)
        return entry

    def _corrupt_entry(self, entry: Path) -> None:
        """Chaos hook: flip bytes in the stored payload (checksum kept
        stale, exactly what bit-rot looks like)."""
        path = entry / "outcome.pkl"
        try:
            data = bytearray(path.read_bytes())
            if data:
                mid = len(data) // 2
                data[mid] ^= 0xFF
                data[-1] ^= 0xFF
                path.write_bytes(bytes(data))
        except OSError:  # pragma: no cover - chaos best-effort
            pass

    def raw_path(self, spec: RunSpec) -> Optional[Path]:
        """Path of the cached raw-sample array for ``spec``, if any."""
        entry = self._entry_dir(spec.digest())
        path = entry / "raw.npy"
        return path if path.exists() else None

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for meta in list(self._entries()):
            shutil.rmtree(meta.parent, ignore_errors=True)
            removed += 1
        return removed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "entries": len(self),
            "version": cache_version(),
        }
