"""Result memoisation keyed by spec fingerprint.

The cache has two tiers: an in-memory dict (always on when a cache is
attached to a :class:`~repro.api.session.Session`) and an optional
on-disk tier of append-only *segments*, so campaign results survive the
process and can be shared between sessions.  Keys combine the backend
name with the :meth:`RunSpec.fingerprint` — the same cell simulated and
model-checked are distinct entries.

Layout: each cache owns one ``segment-<backend>-<unique>.json`` per
backend it writes entries of, at the top of the directory (beside the
batch engine's ``plans/`` store); ``<backend>`` is the part of the key
before its first ``-``, e.g. ``sim``, ``model_ptx``, ``app`` or
``exhaustive``.  It appends one compact JSON line per entry:
``{"key": <cache key>, "version": 5, ...}``.  An entry stores the
result's answer as its ``to_json`` payload (a histogram is a list of
``{regs, mem, count}`` records: a
:class:`~repro.litmus.condition.FinalState` is a pair of sorted tuples,
which maps cleanly onto JSON lists) and the result's provenance (the
engine or backend that executed it, or ``"exhaustive"`` for a proved
result), plus enough metadata to audit the directory by hand
(``python -m json.tool --json-lines`` pretty-prints a segment).  Any
other file in the directory is ignored, the one-file-per-entry
``<key>.json`` files of format 3 included, so such a directory is cold
once and its old entries can be deleted by hand.

Writes: a cache reserves a backend's segment with
:func:`tempfile.mkstemp` at its first write for that backend and
appends each entry with one write in append mode; no descriptor
outlives a call.  Writers never share a segment, so they never collide.
An entry is handed to the OS before ``put`` returns, with no fsync.  A
result that does not serialise raises before anything is written; a
write that fails leaves at most one torn line, and the cache moves its
later entries of that backend to a fresh segment.

Reads: at its first lookup of a backend that misses the memory tier, a
cache lists the directory and reads *every* segment of that backend,
indexing each complete line by the key on its fixed ``{"key":"`` prefix
without decoding the rest; later lookups of that backend touch no file.
Segments are never compacted, and a key can sit in several of them, so
this read grows with everything the directory holds for the backend, not
with the cells the session needs, and the undecoded lines stay in memory
for the life of the cache; deleting the segments empties the disk tier.
A lookup decodes its key's lines until one is a valid version-5 entry,
whose answer decodes through the backend's ``answer_type.from_json``.
A torn tail, a line that does not parse, a stale version or a malformed
answer is skipped, and a key with no valid line is a miss: the
re-executed result is appended, which heals the entry.

Visibility: a cache sees a backend's segments as they were at its first
lookup of that backend, plus its own writes.  An entry another session
appends later is re-executed by this one and appended to its own
segment; both copies are valid, and nothing is lost.
"""

import json
import os
import tempfile

from ..errors import ConfigurationError
from .result import SpecResult, private

#: Bump when the on-disk entry layout changes; mismatched versions are
#: treated as misses so stale caches degrade to re-simulation, not errors.
#: v2: typed backend meta stored beside the histogram, compact JSON.
#: v3: the result's provenance.
#: v4: entries are lines of per-cache segments, keyed in the line.
#: v5: one typed answer replaces the histogram and the meta.
DISK_FORMAT_VERSION = 5

#: Name prefix of every segment file; its suffix is ``.json``.
SEGMENT_PREFIX = "segment-"

#: How every entry line begins; its key runs to the next quote, since a
#: :func:`cache_key` holds no character JSON escapes.
_KEY_PREFIX = b'{"key":"'


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


def segment_prefix(key):
    """The name prefix of the segments that may hold ``key``,
    ``segment-<backend>-``, where ``<backend>`` is the part of the key
    before its first ``-``.  That part holds no ``-``, so no backend's
    prefix begins another's."""
    return "%s%s-" % (SEGMENT_PREFIX, key.split("-", 1)[0])


def encode_entry(key, result):
    """``result`` under ``key`` as one segment line, newline included."""
    spec = result.spec
    payload = {
        "key": key,
        "version": DISK_FORMAT_VERSION,
        "backend": result.backend,
        "test": spec.test.name,
        "chip": spec.chip.short,
        "incantations": str(spec.incantations),
        "iterations": spec.iterations,
        "seed": spec.seed,
        "fingerprint": spec.fingerprint(),
        "answer": result.answer.to_json(),
        "provenance": result.provenance,
    }
    # Compact separators keep json on its C encoder and fix the key
    # prefix the reader indexes by; ensure_ascii keeps the line ASCII.
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def decode_entry(line, key, answer_type):
    """The ``(answer, provenance)`` entry of one segment line, its
    answer an ``answer_type``, or ``None`` if the line is not a valid
    current entry for ``key``."""
    try:
        payload = json.loads(line)
        if (payload["key"] != key
                or payload["version"] != DISK_FORMAT_VERSION):
            return None
        provenance = payload["provenance"]
        if provenance is not None and not isinstance(provenance, str):
            return None
        return answer_type.from_json(payload["answer"]), provenance
    except (ValueError, KeyError, TypeError, AttributeError):
        # A corrupt entry must never poison a campaign: it is a miss.
        return None


def read_segments(directory, prefix):
    """``{key: [line, ...]}`` over every complete line of every segment
    in ``directory`` whose name starts with ``prefix`` (a
    :func:`segment_prefix`), in file-name then file order; keys and
    lines are bytes, and no line is decoded."""
    index = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return index
    start = len(_KEY_PREFIX)
    for name in names:
        if not (name.startswith(prefix) and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        # What follows the last newline is empty or a torn tail.
        for line in data.split(b"\n")[:-1]:
            if line.startswith(_KEY_PREFIX):
                end = line.find(b'"', start)
                if end > 0:
                    index.setdefault(line[start:end], []).append(line)
    return index


class ResultCache:
    """Two-tier (memory + optional disk) memo of completed specs.

    An entry is an ``(answer, provenance)`` pair: a private copy of the
    result's answer (see :func:`~repro.api.result.private`) and the
    result's provenance.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._memory = {}
        #: Per segment prefix, the undecoded lines of its segments by
        #: key, read at the first disk lookup of that backend.
        self._segments = {}
        #: Per segment prefix, this cache's own segment, reserved at its
        #: first disk write of that backend.
        self._own = {}
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as error:
                raise ConfigurationError(
                    "cannot create cache directory %r: %s"
                    % (cache_dir, error.strerror)) from None

    def __len__(self):
        return len(self._memory)

    def get(self, key, spec, backend_name, answer_type):
        """The cached :class:`SpecResult` under ``key`` (a
        :func:`cache_key`), or ``None``.

        Returned results are marked ``cached=True``, bound to the
        *caller's* spec object (key equality guarantees the
        backend-relevant content matches) and carry a private answer,
        so mutating a returned histogram can never poison later hits.
        ``answer_type`` decodes the stored answer of a disk entry.
        """
        entry = self._memory.get(key)
        if entry is None and self.cache_dir:
            entry = self._from_segments(key, answer_type)
        if entry is None:
            return None
        answer, provenance = entry
        return SpecResult(spec=spec, backend=backend_name,
                          answer=private(answer), cached=True,
                          provenance=provenance)

    def put(self, key, result):
        self._memory[key] = (private(result.answer), result.provenance)
        if self.cache_dir:
            self._append(segment_prefix(key), encode_entry(key, result))

    def _from_segments(self, key, answer_type):
        prefix = segment_prefix(key)
        index = self._segments.get(prefix)
        if index is None:
            index = self._segments[prefix] = read_segments(self.cache_dir,
                                                           prefix)
        for line in index.pop(key.encode(), ()):
            entry = decode_entry(line, key, answer_type)
            if entry is not None:
                self._memory[key] = entry
                return entry
        return None

    def _append(self, prefix, line):
        segment = self._own.get(prefix)
        if segment is None:
            descriptor, segment = tempfile.mkstemp(
                dir=self.cache_dir, prefix=prefix, suffix=".json")
            os.close(descriptor)
            self._own[prefix] = segment
        try:
            with open(segment, "ab") as handle:
                handle.write(line)
        except BaseException:
            # The segment may now end in a torn line; appending after it
            # would glue the next entry onto it.
            del self._own[prefix]
            raise
