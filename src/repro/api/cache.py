"""Result memoisation keyed by spec fingerprint.

The cache has two tiers: an in-memory dict (always on when a cache is
attached to a :class:`~repro.api.session.Session`) and an optional
on-disk JSON tier, one file per entry, so campaign results survive the
process and can be shared between sessions.  Keys combine the backend
name with the :meth:`RunSpec.fingerprint` — the same cell simulated and
model-checked are distinct entries.

Disk entries store the histogram as a list of ``{regs, mem, count}``
records (a :class:`~repro.litmus.condition.FinalState` is a pair of
sorted tuples, which maps cleanly onto JSON lists), the backend's typed
meta as its ``to_json`` payload (``null`` for histogram-only backends)
and the result's provenance (the engine or backend that executed it, or
``"exhaustive"`` for a proved result), plus enough metadata to audit
the cache directory by hand (entries are compact JSON;
``python -m json.tool`` pretty-prints one).  Reads decode
the meta through the backend's ``meta_type.from_json``; an entry whose
meta does not decode is a miss, like any other corrupt entry.

Writers never collide: each entry is written through its own temporary
file in the cache directory and moved into place with an atomic
rename, so sessions sharing a directory (threads, processes, parallel
CI legs) only ever see whole entries.
"""

import json
import os
import tempfile

from ..harness.histogram import Histogram
from ..litmus.condition import FinalState
from .result import SpecResult

#: Bump when the on-disk entry layout changes; mismatched versions are
#: treated as misses so stale caches degrade to re-simulation, not errors.
#: v2: typed backend meta stored beside the histogram, compact JSON.
#: v3: the result's provenance.
DISK_FORMAT_VERSION = 3


def cache_key(backend_name, signature, variant=""):
    """The cache key for a spec whose backend-relevant content hashes to
    ``signature`` (:meth:`Backend.cache_signature`).

    ``variant`` captures execution parameters outside the spec that
    still shape the result — for iteration-sharded backends the
    canonical shard decomposition, since per-shard seeding makes the
    histogram a function of the decomposition, not just the spec.
    """
    parts = [backend_name.replace(":", "_")]
    if variant:
        parts.append(variant)
    parts.append(signature)
    return "-".join(parts)


def encode_state(state):
    """A :class:`FinalState` as a JSON-ready ``{regs, mem}`` record."""
    return {"regs": [[tid, reg, value] for (tid, reg), value in state.regs],
            "mem": [[loc, value] for loc, value in state.mem]}


def decode_state(record):
    regs = {(tid, reg): value for tid, reg, value in record["regs"]}
    mem = {loc: value for loc, value in record["mem"]}
    return FinalState.make(regs, mem)


def encode_histogram(histogram):
    return [dict(encode_state(state), count=count)
            for state, count in sorted(histogram.counts.items(),
                                       key=lambda kv: str(kv[0]))]


def decode_histogram(records):
    histogram = Histogram()
    for record in records:
        histogram.add(decode_state(record), record["count"])
    return histogram


class ResultCache:
    """Two-tier (memory + optional disk) memo of completed specs.

    An entry is a ``(counts, meta, provenance)`` triple: a private copy
    of the result histogram's counts, the backend's meta, which is
    immutable and therefore shared by every hit, and the result's
    provenance.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._memory = {}
        self.hits = 0
        self.misses = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self):
        return len(self._memory)

    def _path(self, key):
        return os.path.join(self.cache_dir, key + ".json")

    def get(self, key, spec, backend_name, meta_type=None):
        """The cached :class:`SpecResult` under ``key`` (a
        :func:`cache_key`), or ``None``.

        Returned results are marked ``cached=True``, bound to the
        *caller's* spec object (key equality guarantees the
        backend-relevant content matches) and carry a *fresh* histogram
        copy, so mutating a returned histogram can never poison later
        hits.  ``meta_type`` decodes the stored meta of a disk entry.
        """
        entry = self._memory.get(key)
        if entry is None and self.cache_dir:
            entry = self._read_disk(key, meta_type)
            if entry is not None:
                self._memory[key] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        counts, meta, provenance = entry
        return SpecResult(spec=spec, backend=backend_name,
                          histogram=Histogram(dict(counts)), cached=True,
                          meta=meta, provenance=provenance)

    def put(self, key, result):
        # Store a private copy: callers own (and may mutate) the result
        # histogram they were handed.
        self._memory[key] = (dict(result.histogram.counts), result.meta,
                             result.provenance)
        if self.cache_dir:
            self._write_disk(key, result)

    def _read_disk(self, key, meta_type):
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
            if payload.get("version") != DISK_FORMAT_VERSION:
                return None
            histogram = decode_histogram(payload["histogram"])
            meta = (None if meta_type is None
                    else meta_type.from_json(payload["meta"]))
            provenance = payload["provenance"]
            if provenance is not None and not isinstance(provenance, str):
                raise TypeError("provenance %r" % (provenance,))
            return histogram.counts, meta, provenance
        except (ValueError, KeyError, TypeError, AttributeError, OSError):
            # A missing or corrupt entry must never poison a campaign:
            # treat it as a miss.
            return None

    def _write_disk(self, key, result):
        payload = {
            "version": DISK_FORMAT_VERSION,
            "backend": result.backend,
            "test": result.spec.test.name,
            "chip": result.spec.chip.short,
            "incantations": str(result.spec.incantations),
            "iterations": result.spec.iterations,
            "seed": result.spec.seed,
            "fingerprint": result.spec.fingerprint(),
            "histogram": encode_histogram(result.histogram),
            "meta": None if result.meta is None else result.meta.to_json(),
            "provenance": result.provenance,
        }
        # A private temporary per write: concurrent writers of one key
        # each rename a whole file into place, and the last one wins.
        descriptor, temporary = tempfile.mkstemp(
            dir=self.cache_dir, prefix=key + ".", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w") as handle:
                # Compact separators keep json on its C encoder.
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(temporary, self._path(key))
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
