"""The diy corpus and its enumeration order, pinned.

Campaign caches, recorded verdicts and CI sweeps all address a corpus
by its first N tests, so the generator must keep yielding the same
tests in the same order.  The digests below were recorded from the
eager enumerate-everything-then-dedup generator; the differential test
keeps that generator here, as the reference the lazy
rotation-canonical one must match cycle for cycle.
"""

import hashlib
import random

import pytest

from repro.diy import (default_pool, enumerate_cycles, fences_from_names,
                       generate_tests, scopes_from_names, try_cycle)
from repro.litmus import write_litmus


def _digest(tests):
    text = "\n".join(write_litmus(test) for test in tests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _soundness_pool():
    """The Sec. 5.4 corpus's pool: fences cta gl, scopes dev cta."""
    return default_pool(scopes=scopes_from_names(["dev", "cta"]),
                        fences=fences_from_names(["cta", "gl"]))


@pytest.mark.parametrize("pool,max_tests,count,digest", (
    (_soundness_pool(), None, 461, "2487b08ad6059287"),
    (_soundness_pool(), 40, 40, "04e6d687a888dc83"),
    (default_pool(), None, 695, "69c4a6fd9708ff94"),
), ids=("soundness", "soundness-40", "default"))
def test_corpus_digest(pool, max_tests, count, digest):
    tests = generate_tests(pool, max_length=4, max_tests=max_tests)
    assert len(tests) == count
    assert _digest(tests) == digest


def _reference_cycles(pool, length):
    """Every direction-compatible sequence in depth-first pool order,
    each kept only when no rotation of it (compared by edge names) was
    kept before."""
    seen, cycles = set(), []

    def extend(sequence):
        if len(sequence) == length:
            cycle = try_cycle(sequence)
            if cycle is not None and cycle.canonical() not in seen:
                seen.add(cycle.canonical())
                cycles.append(cycle)
            return
        for edge in pool:
            if not sequence or sequence[-1].dst == edge.src:
                extend(sequence + [edge])

    extend([])
    return cycles


def _random_pools(count=60, seed=5):
    rng = random.Random(seed)
    full = default_pool()
    for index in range(count):
        pool = rng.sample(full, rng.randint(2, 10))
        if index % 3 == 0:
            pool.insert(rng.randrange(len(pool) + 1), rng.choice(pool))
        yield pool


@pytest.mark.parametrize("pool", list(_random_pools()))
def test_enumeration_matches_reference(pool):
    for length in range(2, 6):
        assert ([cycle.edges for cycle in enumerate_cycles(pool, length)]
                == [cycle.edges for cycle in _reference_cycles(pool, length)])

