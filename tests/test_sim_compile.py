"""Fast-path equivalence: compiled cells vs the reference interpreter.

The contract of :mod:`repro.sim.compile` is *bit-identity*: for the same
seed, a compiled cell consumes the ``Random`` stream in exactly the same
sequence as :class:`~repro.sim.machine.GpuMachine` and produces the same
final states — so every figure benchmark and the soundness campaign can
run on the fast engine without a single count changing.  These tests
enforce that contract across the litmus library, the chip stable, the
incantation combinations, diy-generated dependency corpora and arbitrary
shard decompositions, and pin down the engine switch's plumbing through
``RunSpec``/``SimBackend``/``Session``/CLI.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, Session, SimBackend, plan_shards
from repro.api.backends import DEFAULT_SHARD_SIZE
from repro.diy import default_pool, generate_tests
from repro.errors import ReproError
from repro.harness.histogram import Histogram
from repro.harness.incantations import Incantations, efficacy
from repro.litmus import library
from repro.sim import (CHIPS, DEFAULT_ENGINE, ENGINES, GpuMachine,
                       RESULT_CHIPS, build_machine, compile_cell,
                       have_numpy, resolve_engine, run_batch,
                       run_iterations)

LIBRARY_TESTS = sorted(library.PAPER_TESTS)
ALL_CHIPS = list(RESULT_CHIPS) + ["GTX280"]


def _histograms(test, chip, incantations, iterations, seed,
                shard_size=DEFAULT_SHARD_SIZE):
    """Run one cell on both engines through the real backend/shard path;
    returns (reference counts, fast counts)."""
    backend = SimBackend(shard_size=shard_size)
    out = []
    for engine in ("reference", "fast"):
        spec = RunSpec.make(test, chip, incantations=incantations,
                            iterations=iterations, seed=seed, engine=engine)
        out.append(backend.run(spec).answer.counts)
    return out


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           chip=st.sampled_from(ALL_CHIPS),
           column=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1),
           shard_size=st.sampled_from([7, 23, DEFAULT_SHARD_SIZE]))
    def test_library_tests_bit_identical(self, name, chip, column, seed,
                                         shard_size):
        """The headline property: every library test x chip x incantation
        combo yields the same histogram on both engines, under any shard
        decomposition."""
        test = library.build(name)
        reference, fast = _histograms(
            test, chip, Incantations.from_column(column), iterations=60,
            seed=seed, shard_size=shard_size)
        assert reference == fast

    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, 10**6),
           chip=st.sampled_from(["Titan", "TesC", "HD7970", "GTX7"]),
           seed=st.integers(0, 2**16))
    def test_diy_corpus_bit_identical(self, index, chip, seed):
        """Generated tests — including address/data/control dependency
        chains, which exercise register-relative addressing and guarded
        instructions — agree between engines."""
        corpus = self._corpus()
        test = corpus[index % len(corpus)]
        reference, fast = _histograms(test, chip, Incantations.all(),
                                      iterations=50, seed=seed)
        assert reference == fast

    _CORPUS = None

    @classmethod
    def _corpus(cls):
        if cls._CORPUS is None:
            tests = generate_tests(default_pool(), max_length=4,
                                   max_tests=None)
            # Keep every dependency-edge test plus a slice of the rest.
            dep = [t for t in tests
                   if "Addr" in t.name or "Data" in t.name
                   or "Ctrl" in t.name]
            cls._CORPUS = dep[:40] + tests[:20]
        return cls._CORPUS

    def test_rng_stream_parity(self):
        """Stronger than equal histograms: after any run the underlying
        Random streams are at the same position, so engines may be
        interleaved mid-stream."""
        test = library.build("mp-L1")
        chip = CHIPS["TesC"]
        intensity = efficacy(chip.vendor, "mp", Incantations.all())
        reference = GpuMachine(test, chip, intensity=intensity,
                               shuffle_placement=True)
        fast = compile_cell(test, chip, intensity=intensity,
                            shuffle_placement=True)
        r1, r2 = random.Random(42), random.Random(42)
        for _ in range(200):
            assert reference.run_once(r1) == fast.run_once(r2)
            assert r1.random() == r2.random()
        # The fast engine's shard loop (run_batch -> CompiledCell.tally)
        # on a shuffled-placement cell, an under-scoped-fence cell (its
        # damping draws) and a shared-memory cell: same counts, same
        # first-seen order, and both streams left at the same position.
        cells = [("mp-L1", "mp", "TesC", {"shuffle_placement": True}),
                 ("mp-L1+membar.ctas", "mp", "TesC", {}),
                 ("SB-fig12", "sb", "Titan", {"shuffle_placement": True})]
        for name, idiom, chip_name, options in cells:
            test = library.build(name)
            chip = CHIPS[chip_name]
            intensity = efficacy(chip.vendor, idiom, Incantations.all())
            reference = GpuMachine(test, chip, intensity=intensity,
                                   **options)
            fast = compile_cell(test, chip, intensity=intensity, **options)
            r1, r2 = random.Random(7), random.Random(7)
            expected = run_batch(reference, 300, r1)
            got = run_batch(fast, 300, r2)
            assert list(got.counts.items()) == list(expected.counts.items())
            assert r1.getstate() == r2.getstate()

    def test_shared_memory_tests_bit_identical(self):
        """Shared-memory (scratchpad) locations take the non-global
        paths through the compiled memory system."""
        for name in LIBRARY_TESTS:
            test = library.build(name)
            if any(test.space_of(loc).value == "shared"
                   for loc in test.locations()):
                reference, fast = _histograms(
                    test, "Titan", Incantations.none(), iterations=40,
                    seed=3)
                assert reference == fast


#: The library tests with ``.ca`` loads (Figs. 3 and 4) and the chips
#: that cache them in an L1.
CA_TESTS = ("coRR-L2-L1", "coRR-L2-L1+membar.cta", "coRR-L2-L1+membar.gl",
            "coRR-L2-L1+membar.sys", "mp-L1", "mp-L1+membar.ctas",
            "mp-L1+membar.gls", "mp-L1+membar.syss")
L1_CHIPS = ("GTX5", "TesC", "GTX6", "Titan")


def _ca_stream_signature(*runs):
    """sha256 prefix of every ``.ca`` cell's histogram, for each
    ``(engine, iterations)`` of ``runs``, with and without shuffled
    placement: the stream the L1's draws shape."""
    lines = []
    for engine, iterations in runs:
        for name in CA_TESTS:
            test = library.build(name)
            for chip in L1_CHIPS:
                for shuffle in (False, True):
                    machine = build_machine(engine, test, CHIPS[chip],
                                            intensity=4.0,
                                            shuffle_placement=shuffle)
                    histogram = run_batch(machine, iterations,
                                          random.Random(17))
                    lines.append("%s %s@%s shuffle=%s %s" % (
                        engine, name, chip, shuffle,
                        sorted((str(state), count) for state, count
                               in histogram.counts.items())))
    payload = "\n".join(lines).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class TestCaStreamPins:
    """The ``.ca`` cells' streams, pinned across versions: the L1 keeps
    exactly the draws these histograms were recorded with."""

    def test_reference_and_fast(self):
        assert _ca_stream_signature(("reference", 200), ("fast", 1000)) \
            == "27af19cfa4372dd9"

    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_batch(self):
        assert _ca_stream_signature(("batch", 2000)) == "0be2156b5633502d"


class TestEngineSwitch:
    def test_default_engine_is_fast(self):
        assert DEFAULT_ENGINE == "fast"
        assert resolve_engine(None) == "fast"
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        assert spec.engine == "fast"

    def test_bad_engine_argument(self):
        with pytest.raises(ReproError):
            RunSpec.make(library.build("mp"), "Titan", iterations=10,
                         engine="warp-speed")

    def test_fingerprint_engine_independent(self):
        """Shard seeds derive from the fingerprint, so the fingerprint
        must not see the engine — that is what makes cross-engine runs
        comparable shard by shard."""
        test = library.build("mp")
        fast = RunSpec.make(test, "Titan", iterations=100, engine="fast")
        reference = replace(fast, engine="reference")
        assert fast.fingerprint() == reference.fingerprint()
        assert ([shard.seed for shard in plan_shards(fast, 30)]
                == [shard.seed for shard in plan_shards(reference, 30)])

    def test_cache_signature_engine_dependent(self):
        """Cached histograms must not cross engines: a reference result
        answering a fast-engine request would mask fast-path bugs."""
        backend = SimBackend()
        test = library.build("mp")
        fast = RunSpec.make(test, "Titan", iterations=100, engine="fast")
        assert (backend.cache_signature(fast)
                != backend.cache_signature(replace(fast, engine="reference")))

    def test_session_engine_default_and_override(self):
        session = Session(engine="reference", cache=False)
        test = library.build("mp")
        result = session.run(test, "Titan", iterations=20, seed=1)
        assert result.spec.engine == "reference"
        result = session.run(RunSpec.make(test, "Titan", iterations=20,
                                          seed=1, engine="fast"))
        assert result.spec.engine == "fast"
        assert Session(cache=False).engine == "fast"

    def test_sessions_bit_identical_across_engines(self):
        test = library.build("cas-sl")
        histograms = {}
        for engine in ENGINES:
            session = Session(cache=False, engine=engine)
            result = session.run(test, "GTX6", iterations=400, seed=9)
            histograms[engine] = result.histogram.counts
        assert histograms["fast"] == histograms["reference"]

    def test_threaded_session_matches_serial(self):
        """jobs>1 with the thread executor shares one SimBackend across
        workers: the per-thread compile memo must keep cells isolated
        and the merged histogram bit-identical to the serial run."""
        test = library.build("mp")
        serial = Session(backend=SimBackend(shard_size=50), cache=False,
                         jobs=1)
        threaded = Session(backend=SimBackend(shard_size=50), cache=False,
                           jobs=4, executor="thread")
        a = serial.run(test, "Titan", iterations=400, seed=2)
        b = threaded.run(test, "Titan", iterations=400, seed=2)
        assert a.histogram.counts == b.histogram.counts

    def test_run_iterations_engines_agree(self):
        test = library.build("sb")
        chip = CHIPS["TesC"]
        fast = run_iterations(test, chip, 300, seed=4, engine="fast")
        reference = run_iterations(test, chip, 300, seed=4,
                                   engine="reference")
        assert fast == reference

    def test_cli_engine_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "mp", "--engine", "reference"])
        assert args.engine == "reference"
        args = parser.parse_args(["soundness", "--engine", "fast"])
        assert args.engine == "fast"
        args = parser.parse_args(["campaign", "mp"])
        assert args.engine is None  # the session's default, fast


class TestRunBatch:
    def test_accumulates_into_given_histogram(self):
        test = library.build("mp")
        cell = compile_cell(test, CHIPS["Titan"])
        histogram = Histogram()
        out = run_batch(cell, 25, random.Random(0), histogram)
        assert out is histogram
        assert histogram.total == 25
        run_batch(cell, 25, random.Random(1), histogram)
        assert histogram.total == 50

    def test_fresh_histogram_when_omitted(self):
        cell = compile_cell(library.build("sb"), CHIPS["GTX7"])
        histogram = run_batch(cell, 10, random.Random(0))
        assert histogram.total == 10

    def test_machine_state_reuse_is_clean(self):
        """Back-to-back batches on one compiled cell match fresh cells:
        nothing leaks across iterations or batches."""
        test = library.build("coRR-L2-L1")
        chip = CHIPS["TesC"]
        cell = compile_cell(test, chip, intensity=1.0)
        first = run_batch(cell, 120, random.Random(8)).counts
        again = run_batch(cell, 120, random.Random(8)).counts
        fresh = run_batch(compile_cell(test, chip, intensity=1.0), 120,
                          random.Random(8)).counts
        assert first == again == fresh


class TestCompiledCellErrors:
    def test_uninstalled_address_raises(self):
        from repro.errors import SimulationError
        from repro.litmus import LitmusTest
        from repro.litmus.condition import Condition, MemEq
        from repro.ptx import Addr, Imm, Mov, Reg, St
        from repro.ptx.program import ThreadProgram

        # A register-addressed store to an address no location owns.
        program = ThreadProgram(tid=0, instructions=(
            Mov(Reg("r2"), Imm(0x1234)),
            St(Addr(Reg("r2")), Imm(1)),
        ))
        test = LitmusTest(name="bad-addr", threads=(program,),
                          condition=Condition("exists", MemEq("x", 0)),
                          init_mem={"x": 0})
        cell = compile_cell(test, CHIPS["Titan"])
        with pytest.raises(SimulationError):
            cell.run_once(random.Random(0))

    def test_livelock_raises_fuel_exhausted(self):
        """The fast engine's shard loop runs out of fuel on a spin loop
        that never exits, as the reference engine does, and names the
        test."""
        from repro.errors import FuelExhausted
        from repro.litmus import parse_litmus

        test = parse_litmus("""
        GPU_PTX forever
        { 0:.reg .s32 r0; 0:.reg .pred p; }
         T0 ;
         LOOP: ;
         ld.cg.s32 r0, [x] ;
         setp.eq.s32 p, r0, 0 ;
         @p bra LOOP ;
        exists (0:r0=1)
        """)
        cell = compile_cell(test, CHIPS["Titan"])
        with pytest.raises(FuelExhausted, match="test forever did not"):
            run_batch(cell, 5, random.Random(0))
