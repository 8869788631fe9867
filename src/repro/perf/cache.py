"""Persistent compilation cache: the warm path's disk layer.

Every specialized stepper in this package — the big-core/golden/replay
makers in :mod:`repro.perf.jit` and the decoded-closure makers in
:mod:`repro.perf.decode` — is ``exec``-compiled from generated source.
Within one process the compiled code objects are memoized in module
dicts, but a fresh CLI invocation used to pay the whole
assemble-source-and-``compile()`` bill again before the first
instruction could step.

:class:`CodeCache` memoizes those code objects **on disk** (``marshal``
format), so every invocation after the first starts warm:

* **Location** — ``$REPRO_CACHE_DIR`` if set, else
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.
  ``REPRO_NO_DISK_CACHE=1`` disables the layer entirely (the in-process
  caches still work; everything just compiles once per process).
* **Keying** — the cache *file name* carries a fingerprint digest of
  the generator inputs: the source bytes of ``ops.py`` / ``jit.py`` /
  ``decode.py`` plus the ISA tables they bake in
  (``isa/instructions.py``, ``isa/semantics.py``), the Python feature
  version, and the bytecode magic number.  Editing the expression
  table, a stepper template, an instruction spec, or upgrading Python
  changes the digest, so stale entries are invalidated
  wholesale by construction — no entry-level versioning to get wrong.
  Within a file, entries are keyed by maker identity (``"big:add:fast"``,
  ``"decode:ld"``, ...); per-program and per-config specialization
  happens when the maker is *called*, so the cached artifact is valid
  for every program and config.
* **Corruption safety** — a truncated, garbled, or wrong-format cache
  file is indistinguishable from a cold cache: every read is guarded
  and falls back to recompiling (and then overwrites the bad file).
* **Concurrent writers** — campaign workers all warm up at once.
  Writes go through a same-directory temp file + :func:`os.replace`
  (atomic on POSIX), and each flush first re-reads and merges the
  current file, so parallel writers union their entries rather than
  truncating each other; a lost race costs a recompile, never a crash.
"""

import atexit
import importlib.util
import marshal
import os
import sys
from hashlib import blake2b

from repro.common.files import atomic_write

CACHE_SCHEMA = 1

_MAGIC = b"RPRC\x01"


def disk_cache_enabled():
    """Whether the persistent layer is active (``REPRO_NO_DISK_CACHE``
    unset)."""
    return os.environ.get("REPRO_NO_DISK_CACHE", "") in ("", "0")


def cache_dir():
    """The cache directory (not created until first write)."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _generator_sources():
    """Source bytes of the modules whose text shapes every generated
    stepper: the ops expression table and both template assemblers,
    plus the ISA tables the generators bake in at compile time (SPECS
    flags, load/store sizes, trap sets)."""
    blobs = []
    for name in ("repro.perf.ops", "repro.perf.decode", "repro.perf.jit",
                 "repro.isa.instructions", "repro.isa.semantics"):
        spec = importlib.util.find_spec(name)
        source = b""
        if spec is not None and spec.origin and os.path.exists(spec.origin):
            with open(spec.origin, "rb") as handle:
                source = handle.read()
        blobs.append(source)
    return blobs


def source_fingerprint(extra=b""):
    """Digest of everything that can change the generated code."""
    digest = blake2b(digest_size=10)
    digest.update(f"schema={CACHE_SCHEMA}".encode())
    digest.update(f"py={sys.version_info[:2]}".encode())
    digest.update(importlib.util.MAGIC_NUMBER)
    for blob in _generator_sources():
        digest.update(b"\x00")
        digest.update(blob)
    digest.update(extra)
    return digest.hexdigest()


class CodeCache:
    """One on-disk dict of ``key -> code object`` (lazy, merged,
    atomic).

    All failure modes degrade to a cache miss: the caller compiles as
    if cold and the next flush rewrites a healthy file.
    """

    def __init__(self, path):
        self.path = path
        self._entries = {}
        self._loaded = False
        self._dirty = False
        self._flush_registered = False

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _read_entries(path):
        """Parse one cache file; {} on any corruption or mismatch."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            if not blob.startswith(_MAGIC):
                return {}
            entries = marshal.loads(blob[len(_MAGIC):])
            if not isinstance(entries, dict):
                return {}
            # Every key must map to a real code object; a partial write
            # that survived the marshal parse still gets rejected here.
            for key, code in entries.items():
                if not isinstance(key, str) or not hasattr(code, "co_code"):
                    return {}
            return entries
        except (OSError, EOFError, ValueError, TypeError):
            return {}

    def _ensure_loaded(self):
        if not self._loaded:
            self._entries = self._read_entries(self.path)
            self._loaded = True

    def get(self, key):
        """The cached code object for ``key``, or ``None``."""
        self._ensure_loaded()
        return self._entries.get(key)

    def __len__(self):
        self._ensure_loaded()
        return len(self._entries)

    # -- writing -----------------------------------------------------------

    def put(self, key, code):
        """Record ``key -> code``; persisted at the next flush (an
        ``atexit`` flush is registered automatically)."""
        self._ensure_loaded()
        self._entries[key] = code
        self._dirty = True
        if not self._flush_registered:
            self._flush_registered = True
            atexit.register(self.flush)

    def flush(self):
        """Merge-and-write the cache file atomically; never raises."""
        if not self._dirty:
            return False
        try:
            merged = dict(self._read_entries(self.path))
            merged.update(self._entries)
            atomic_write(self.path, _MAGIC + marshal.dumps(merged))
            self._entries = merged
            self._dirty = False
            return True
        except (OSError, ValueError):
            # A read-only or vanished cache dir must never take the
            # simulation down; the warm path is an optimization.
            return False


class _NullCache:
    """The disabled cache: every lookup misses, writes vanish."""

    path = None

    def get(self, key):
        return None

    def put(self, key, code):
        pass

    def flush(self):
        return False

    def __len__(self):
        return 0


_stepper_cache = None


def stepper_cache():
    """The process-wide persistent stepper cache (or the null cache
    when disabled)."""
    global _stepper_cache
    if _stepper_cache is None:
        if disk_cache_enabled():
            name = f"steppers-{source_fingerprint()}.marshal"
            _stepper_cache = CodeCache(os.path.join(cache_dir(), name))
        else:
            _stepper_cache = _NullCache()
    return _stepper_cache


def reset_stepper_cache():
    """Drop the process-wide handle (tests; env-var changes)."""
    global _stepper_cache
    if _stepper_cache is not None:
        _stepper_cache.flush()
    _stepper_cache = None


def cached_compile(key, build_source, filename):
    """``compile()`` with the persistent layer in front.

    ``build_source`` is only invoked on a disk miss, so a warm start
    skips both the source assembly and the parse/codegen.

    Every lookup counts into the ``cache.hits``/``cache.misses``
    observability counters and (when ``$REPRO_EVENTS`` is set) emits a
    ``cache_hit``/``cache_miss`` event.  This fires once per *maker
    compilation* — dozens of times per process lifetime, never on the
    per-instruction path — so the instrumentation is free where it
    matters.
    """
    from repro.obs.events import event_log
    from repro.obs.metrics import get_registry

    cache = stepper_cache()
    registry = get_registry()
    code = cache.get(key)
    if code is None:
        registry.counter("cache.misses").inc()
        event_log().emit("cache_miss", key=key)
        code = compile(build_source(), filename, "exec")
        cache.put(key, code)
    else:
        registry.counter("cache.hits").inc()
        event_log().emit("cache_hit", key=key)
    return code
