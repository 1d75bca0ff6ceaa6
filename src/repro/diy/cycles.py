"""Cycle enumeration over relaxation edges (the core of diy, Sec. 4.1).

A cycle is a sequence of edges, interpreted cyclically: edge *i* connects
event *i* to event *i+1 (mod n)*.  A cycle is *well formed* when:

* adjacent directions agree (``dst`` of edge *i* = ``src`` of edge *i+1*);
* walking the cycle and switching threads at external edges returns to
  the starting thread (so threads partition the cycle into contiguous
  segments) and uses at least two threads;
* walking the cycle and switching locations at different-location edges
  returns to the starting location;
* the scope annotations of the external edges admit a consistent CTA
  assignment (same-CTA edges are transitive).
"""

from ..errors import GenerationError


class Cycle:
    """A validated cycle: edges plus per-event thread/location/direction."""

    def __init__(self, edges):
        edges = tuple(edges)
        if len(edges) < 2:
            raise GenerationError("a cycle needs at least two edges")
        self.edges = self._normalise(edges)
        self.n = len(edges)
        self._place()

    @staticmethod
    def _normalise(edges):
        """Rotate so the cycle ends with an external edge.

        Thread segments are then contiguous runs starting at event 0,
        which lets the generator emit instructions in cycle order.
        """
        external = [i for i, edge in enumerate(edges) if not edge.same_thread]
        if len(external) < 2:
            raise GenerationError(
                "a cycle needs at least two external (communication) edges")
        shift = (external[-1] + 1) % len(edges)
        return tuple(edges[shift:] + edges[:shift])

    def _place(self):
        edges = self.edges
        n = self.n
        for i, edge in enumerate(edges):
            nxt = edges[(i + 1) % n]
            if edge.dst != nxt.src:
                raise GenerationError(
                    "direction mismatch between %s and %s" % (edge, nxt))

        directions = [edge.src for edge in edges]

        # Threads: a new thread after every external edge; the final
        # external edge (guaranteed last by normalisation) wraps to T0.
        threads = [0]
        for edge in edges[:-1]:
            threads.append(threads[-1] + (0 if edge.same_thread else 1))
        n_threads = threads[-1] + 1

        # Locations: diy reuses locations cyclically — a new location
        # after every different-location edge, modulo the number of
        # such edges.  One lone location-changing edge cannot close.
        n_changes = sum(1 for edge in edges if not edge.same_loc)
        if n_changes == 1:
            raise GenerationError(
                "a single location-changing edge cannot close the cycle")
        locations, change_count = [0], 0
        for edge in edges[:-1]:
            if not edge.same_loc:
                change_count += 1
            locations.append(change_count % max(n_changes, 1))
        n_locations = max(n_changes, 1)

        self.directions = directions
        self.threads = threads
        self.locations = locations
        self.n_threads = n_threads
        self.n_locations = n_locations
        self.cta_groups = self._solve_scopes()

    def _solve_scopes(self):
        """Assign CTAs to threads consistently with edge scope annotations.

        Same-CTA edges union their endpoint threads; different-CTA edges
        then must cross groups.  Returns thread -> CTA index.
        """
        parent = list(range(self.n_threads))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        external = []
        for i, edge in enumerate(self.edges):
            if edge.same_thread:
                continue
            a = self.threads[i]
            b = self.threads[(i + 1) % self.n]
            external.append((edge, a, b))
            if edge.scope == "cta":
                parent[find(a)] = find(b)
        for edge, a, b in external:
            if edge.scope != "cta" and find(a) == find(b):
                raise GenerationError(
                    "scope annotations inconsistent: threads %d and %d must be"
                    " both intra- and inter-CTA" % (a, b))
        groups = {}
        assignment = []
        for tid in range(self.n_threads):
            root = find(tid)
            groups.setdefault(root, len(groups))
            assignment.append(groups[root])
        return assignment

    @property
    def name(self):
        return " ".join(edge.name for edge in self.edges)

    def canonical(self):
        """Rotation-canonical form (for deduplication)."""
        rotations = []
        names = [edge.name for edge in self.edges]
        for shift in range(self.n):
            rotations.append(tuple(names[shift:] + names[:shift]))
        return min(rotations)

    def __str__(self):
        return self.name


def try_cycle(edges):
    """Build a cycle, returning None when the sequence is ill-formed."""
    try:
        return Cycle(edges)
    except GenerationError:
        return None


def enumerate_cycles(pool, length):
    """Yield the well-formed cycles of exactly ``length`` edges from
    ``pool``, one per rotation class.

    Mirrors diy's behaviour: the pool lists candidate relaxations and the
    tool "enumerates the possible cycles that can be formed with those
    edges" (Sec. 4.1).  This is a generator, so a caller that stops
    early builds only the cycles it took.

    Edges are told apart by name; a repeated pool edge counts once, at
    its first occurrence.  Each rotation class is yielded at its least
    rotation by pool position -- the one a depth-first walk over the
    pool in order reaches first -- and classes come in the order that
    walk reaches them.  The walk is the Fredricksen-Kessler-Maiorana
    necklace generator restricted to direction-compatible sequences: it
    extends only prefixes that can still begin a least rotation and
    still reach two external edges, closes the last edge onto the first
    edge's direction, and builds a candidate cycle only for a sequence
    no rotation of which is smaller and that does not have exactly one
    location-changing edge (:class:`Cycle` rejects both shapes).
    """
    if length < 2:
        return
    unique = {}
    for edge in pool:
        unique.setdefault(edge.name, edge)
    edges = list(unique.values())
    successors = [[j for j, nxt in enumerate(edges) if nxt.src == edge.dst]
                  for edge in edges]
    external = [0 if edge.same_thread else 1 for edge in edges]
    changes = [0 if edge.same_loc else 1 for edge in edges]

    def walk(sequence, period, n_external, n_changes):
        # ``sequence`` is a least-rotation prefix: its longest Lyndon
        # prefix, of length ``period``, repeated and then cut short.  The
        # next edge may not sort before the one a period back.
        # ``n_external``/``n_changes`` count its external and
        # location-changing edges, the two counts Cycle rejects on.
        position = len(sequence)
        if position == length:
            # A least-rotation prefix is a least rotation exactly when
            # its period divides its length.
            if length % period == 0 and n_changes != 1:
                cycle = try_cycle([edges[i] for i in sequence])
                if cycle is not None:
                    yield cycle
            return
        bound = sequence[position - period]
        closing = edges[sequence[0]].src if position == length - 1 else None
        # Skip an edge after which even all-external remaining edges
        # could not give the cycle its two external edges.
        needed = 2 - n_external - (length - position - 1)
        for j in successors[sequence[-1]]:
            if j < bound or (closing is not None and edges[j].dst != closing):
                continue
            if external[j] < needed:
                continue
            yield from walk(sequence + (j,),
                            period if j == bound else position + 1,
                            n_external + external[j], n_changes + changes[j])

    for first in range(len(edges)):
        yield from walk((first,), 1, external[first], changes[first])


def cycles_up_to(pool, max_length):
    """Yield the cycles of lengths 2..max_length, shortest first, each
    length in :func:`enumerate_cycles` order (a generator)."""
    for length in range(2, max_length + 1):
        yield from enumerate_cycles(pool, length)
