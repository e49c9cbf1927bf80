"""Incremental analysis cache: content-hash keyed, summary-aware.

``repro check`` is a hard CI gate, and the flow passes re-parse and
re-analyze every module from scratch on every run.  This store makes
the common case — nothing changed, or one module changed — cheap.
Every key derives from the sha256 of each file's bytes, taken once
per run as :class:`~repro.analysis.flow.SourceTree` reads them: keys
are content only, never mtimes, sizes or inodes.

* **whole-tree fast path** — ``tree.json`` records, for each of the
  last :data:`RECENT_TREES` trees analyzed, a digest of the tree's
  :func:`content_digest` plus every pass version, and that tree's raw
  findings.  When the digest matches a remembered tree, the runner
  serves every result (the whole-tree passes' results included:
  conformance and the layering and concurrency lints) from
  ``tree.json`` alone
  with *zero* analysis work: no decode, no parse, no call graph, no
  summary fixpoint.  Remembering several trees means a reverted edit
  or a deleted probe file is served whole too.  Only a miss parses,
  and it parses the very bytes that were hashed.

* **per-module keys** — when the tree digest misses, each module's key
  is ``sha256(file digest + pass versions + own summary digest + each
  dependency's summary digest)``, where dependencies are the modules
  containing any resolved callee (call-graph edges, not imports).
  Editing module A re-analyzes A and exactly the modules whose
  summaries A's change reaches — the reverse-dependency cone, pruned
  further when A's exported summaries are in fact unchanged (a
  comment-only edit invalidates nothing downstream; summaries carry
  no line numbers).

Cached values are *raw* findings, before baseline suppression, so
editing ``flow_baseline.txt`` changes reported output without
invalidating anything.  A module whose analysis crashed is never
stored — the next run retries it.

Layout under the cache directory (default ``.repro-cache/``)::

    tree.json             recent tree digests + their raw findings
    modules/<dotted>.json per-module key + per-pass findings
    stats.json            last run's analyzed/cached counters
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

#: Bumped when the on-disk format changes; part of every digest.
CACHE_FORMAT = "2"

DEFAULT_DIR = Path(".repro-cache")

#: How many trees ``tree.json`` remembers.
RECENT_TREES = 4


def _sha(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def content_digest(file_digests: dict[str, str]) -> str:
    """Digest over every ``(module, file digest)`` pair, in module order."""
    return _sha(f"{m}={d}" for m, d in sorted(file_digests.items()))


def tree_digest(content: str, versions: dict[str, str]) -> str:
    """A :func:`content_digest` plus every pass version."""
    parts = [CACHE_FORMAT, content]
    parts += [f"{name}={ver}" for name, ver in sorted(versions.items())]
    return _sha(parts)


def module_key(file_digest: str, versions: dict[str, str],
               own_digest: str, dep_digests: dict[str, str]) -> str:
    """Cache key for one module's per-module pass results."""
    parts = [CACHE_FORMAT, file_digest]
    parts += [f"{name}={ver}" for name, ver in sorted(versions.items())]
    parts.append(f"self={own_digest}")
    parts += [f"{dep}={d}" for dep, d in sorted(dep_digests.items())]
    return _sha(parts)


class AnalysisCache:
    """Content-addressed store under one directory (see module doc)."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.dir = Path(directory) if directory is not None \
            else DEFAULT_DIR
        self.modules_dir = self.dir / "modules"

    # -- low-level json io --------------------------------------------------

    @staticmethod
    def _read(path: Path) -> Optional[dict]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    @staticmethod
    def _write(path: Path, payload: dict) -> None:
        # A temp file per write: two writers never move each other's.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=1, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- whole-tree section: the last few trees, keyed by digest ------------

    def load_tree(self, digest: str) -> Optional[dict]:
        """The stored whole-tree result for *digest*, if remembered."""
        payload = self._read(self.dir / "tree.json") or {}
        for entry in payload.get("trees", ()):
            if isinstance(entry, dict) and entry.get("digest") == digest:
                return entry
        return None

    def store_tree(self, digest: str, payload: dict) -> None:
        stored = self._read(self.dir / "tree.json") or {}
        kept = [e for e in stored.get("trees", ())
                if isinstance(e, dict) and e.get("digest") != digest]
        self._write(self.dir / "tree.json",
                    {"trees": kept[-(RECENT_TREES - 1):]
                     + [dict(payload, digest=digest)]})

    # -- per-module section ---------------------------------------------------

    def load_module(self, module: str, key: str) -> Optional[dict]:
        """The module's per-pass findings, when its key matches."""
        payload = self._read(self.modules_dir / f"{module}.json")
        if payload is not None and payload.get("key") == key:
            return payload
        return None

    def store_module(self, module: str, key: str,
                     findings_by_pass: dict[str, list[dict]]) -> None:
        self._write(self.modules_dir / f"{module}.json",
                    {"key": key, "passes": findings_by_pass})

    # -- stats -----------------------------------------------------------------

    def write_stats(self, stats: dict) -> None:
        self._write(self.dir / "stats.json", stats)

    def read_stats(self) -> Optional[dict]:
        return self._read(self.dir / "stats.json")
