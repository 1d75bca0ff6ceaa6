"""Vectorized batch engine: numpy structure-of-arrays cell lowering.

The fast engine of :mod:`repro.sim.compile` removed the per-instruction
*dispatch* cost but still walks one Python closure per step per
iteration.  This module lowers a cell one level further: all iterations
of a shard advance **in lockstep** through the same stochastic process,
with machine and memory state held in structure-of-arrays numpy buffers
whose leading axis is the iteration.  One scheduler round picks a thread
*per iteration* with a single vectorized draw; decode, the
preserved-program-order check and memory effects each run as batched
array kernels over the iterations that selected that thread.

Lowering summary
----------------

* **Registers** — per thread, an ``(N, R)`` int64 matrix (register name
  → column, resolved at compile time) plus an ``(N, R)`` pending mask.
* **Pending queue** — each memory instruction owns one static *slot*;
  the queue is an ``(N, K)`` membership mask plus per-slot sequence
  numbers and pre-resolved dynamic operands.  (The frontend cannot
  decode past an instruction whose sources are pending, so at most one
  in-flight instance per static op can exist — checked at push time.)
* **Memory** — locations become dense column indices: one ``(N, Lg)``
  global array and an ``(N, S, Ls)`` shared array.  There is no L1: no
  load reads an L1 line (:mod:`repro.sim.memory`), so only the L1's
  draws remain (see the stream contract below).
* **Incantation draws** — the per-iteration intent vector is an
  ``(N, n_slots)`` Bernoulli matrix drawn once per batch; pass rules
  index it with the same slot constants as the fast engine.
* **Eligibility** — pair-blocking rules are compiled per ordered slot
  pair into constants or tiny mask kernels (same-address hazards,
  volatile pairs, fence bypass with the same-address-probe), evaluated
  over the selected iterations at once.
* **Step kernels** operate on *compact row-index arrays* (the
  iterations that scheduled this thread and are actually decoding or
  issuing), so per-kernel cost tracks the work, not the batch width.

RNG-stream contract (the documented seeded stream-break)
--------------------------------------------------------

``reference`` and ``fast`` consume one ``random.Random`` stream in
bit-identical order.  Batching necessarily breaks that sequential
stream: draws become *array* draws from a ``numpy`` PCG64 generator
seeded deterministically from the shard's ``random.Random`` (via
``getrandbits``), so results remain a pure function of the shard seed —
but the histograms are no longer bit-identical to the other engines.
What *is* preserved is the stochastic process itself: every transition
probability (intent vector, CTA placement, uniform runnable-thread
choice, random non-oldest eligible pick, under-scoped fence damping) is
identical, so the outcome *distribution* of every cell is exactly the
fast engine's.  Each chunk still makes the draws of the retired stale-L1
model that the recorded streams hold: one staleness draw per row and,
on chips with an L1, one warm-line draw per (row, used SM, global
location).  The other engines' L1 drop draws have no counterpart here:
the recorded batch streams hold none, since a batch row filled its L1
only under a staleness intent, which no chip ever drew.
``tests/test_sim_batch.py`` enforces this with
distribution-equivalence tests plus weak-behaviour-verdict and
scenario-loss-verdict parity on the acceptance corpora.

numpy is a *guarded* dependency: importing this module without numpy is
fine; building a cell raises
:class:`~repro.errors.ConfigurationError` naming the ``repro[batch]``
install extra.
"""

import random as _random

try:  # guarded dependency: the [batch] install extra
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from ..errors import ConfigurationError, FuelExhausted, SimulationError
from ..litmus.condition import FinalState
from ..ptx.operands import Imm, Loc, Reg
from ..ptx.types import MemorySpace, Scope
from .compile import (K_ADD, K_CAS, K_EXCH, K_FENCE, K_LOAD, K_STORE,
                      SLOT_MIXED_HAZARD, SLOT_RR_HAZARD, SLOT_VOLATILE,
                      _bypass_slots, _PASS_PAIR, _SCOPES)
from .machine import _FUEL_PER_INSTRUCTION

#: Cap on a lockstep chunk's width, so state arrays stay cache- and
#: memory-friendly however wide the shard.
MAX_BATCH = 25000

#: Issue-window size and decode budget (the reference engine's).
WINDOW = 16
BUDGET = 32

_NO_SEQ = 1 << 62  # masked-argmin filler; larger than any real seq

#: Straggler-tail threshold: once a lockstep chunk's live rows fall to
#: this share of its width, the survivors are suspended and coalesced
#: for draining instead of paying full-width numpy dispatch per tick.
_TAIL_FRACTION = 0.05

#: Once a straggler tail has coalesced down to this many rows, lockstep
#: dispatch stops paying for itself (fixed per-tick kernel overhead
#: dwarfs the per-row work) and the survivors are drained one by one on
#: the embedded fast-engine cell instead.  A scalar resume costs about
#: as much as a fast-engine iteration (~tens of µs), so the cutover
#: sits where a lockstep tick's fixed cost exceeds the handful of
#: scalar finishes it would replace — measured on the pinned corpus,
#: that is a few dozen rows, not hundreds.
_DRAIN_ROWS = 32

#: Adaptive chunk sizing targets this much live SoA state per chunk —
#: beyond it the working set falls out of shared cache and per-tick
#: kernels slow down measurably on the pinned corpus.
_CACHE_TARGET = 12 << 20

#: Floor for adaptive chunk widths: below this the fixed per-tick
#: dispatch overhead dominates and wider always wins.
_MIN_CHUNK = 2048

#: Version tag of the picklable lowering plan (bump on layout changes
#: to :class:`_ThreadStatic`/:class:`_SlotStatic`).
PLAN_VERSION = 1


def have_numpy():
    """True when the optional numpy dependency is importable."""
    return np is not None


def require_numpy():
    """Raise :class:`ConfigurationError` unless numpy is available."""
    if np is None:
        raise ConfigurationError(
            "engine='batch' needs numpy, which is not installed; "
            "install the batch extra (pip install 'repro[batch]') or "
            "pick engine='fast'/'reference' (no third-party packages)")


def _unique_rows(matrix):
    """``np.unique(matrix, axis=0, return_counts=True)``, but fast.

    Final-state columns span tiny ranges, so the rows almost always
    pack losslessly into one int64 key (mixed radix over the per-column
    spans) — sorting scalars instead of void-view rows.  Falls back to
    the generic row-unique when a pathological value range overflows.
    """
    if matrix.shape[1] == 0 or len(matrix) == 0:
        return matrix[:1], np.asarray([len(matrix)] * min(len(matrix), 1))
    lo = matrix.min(axis=0)
    spans = [int(s) + 1 for s in (matrix.max(axis=0) - lo)]
    total = 1
    for span in spans:
        total *= span
        if total > (1 << 62):
            states, counts = np.unique(matrix, axis=0, return_counts=True)
            return states, counts
    key = np.zeros(len(matrix), dtype=np.int64)
    mult = 1
    for column, span in enumerate(spans):
        key += (matrix[:, column] - lo[column]) * mult
        mult *= span
    packed, counts = np.unique(key, return_counts=True)
    states = np.empty((len(packed), matrix.shape[1]), dtype=np.int64)
    mult = 1
    for column, span in enumerate(spans):
        states[:, column] = (packed // mult) % span + lo[column]
        mult *= span
    return states, counts


class _SlotStatic:
    """Compile-time facts for one memory-instruction queue slot."""

    __slots__ = ("kind", "dst_col", "cop", "volatile", "is_load", "is_store",
                 "atomic", "ca_load", "pass_pair", "mixed_slot", "ca_slot",
                 "addr_const", "addr_reg_col", "val_const", "val_reg_col",
                 "cmp_const", "cmp_reg_col", "static_addr", "shared", "gloc",
                 "sloc")

    def __init__(self, kind, dst_col=None, cop=None, volatile=False,
                 mixed_slot=0, ca_slot=0):
        self.kind = kind
        self.dst_col = dst_col
        self.cop = cop
        self.volatile = volatile
        self.is_load = kind in (K_LOAD, K_CAS, K_EXCH, K_ADD)
        self.is_store = kind in (K_STORE, K_CAS, K_EXCH, K_ADD)
        self.atomic = kind in (K_CAS, K_EXCH, K_ADD)
        self.ca_load = kind == K_LOAD and cop == "ca"
        self.pass_pair = _PASS_PAIR[self.is_store]
        self.mixed_slot = mixed_slot
        self.ca_slot = ca_slot
        self.addr_const = 0
        self.addr_reg_col = None
        self.val_const = 0
        self.val_reg_col = None
        self.cmp_const = 0
        self.cmp_reg_col = None
        self.static_addr = None   # resolved address when compile-time known
        self.shared = False
        self.gloc = -1
        self.sloc = -1


class _ThreadStatic:
    """Compiled per-thread program: step kernels plus slot tables."""

    __slots__ = ("tid", "code", "ncode", "init_regs", "n_regs", "reg_index",
                 "slots", "K", "static_order", "pairs", "issue", "cta",
                 "window_check", "slot_of")

    def __init__(self, tid, cta):
        self.tid = tid
        self.cta = cta
        self.code = []
        self.ncode = 0
        self.init_regs = None
        self.n_regs = 0
        self.reg_index = {}
        self.slots = []
        self.K = 0
        self.static_order = True
        self.pairs = []
        self.issue = []
        self.window_check = False
        self.slot_of = {}


class _ThreadState:
    """Runtime SoA state for one thread across a batch."""

    __slots__ = ("S", "pc", "regs", "pending", "in_q", "q_n", "q_seq",
                 "q_addr", "q_val", "q_cmp", "seq", "dec_blocked")

    _ARRAYS = ("pc", "regs", "pending", "in_q", "q_n", "q_seq", "q_addr",
               "q_val", "q_cmp", "seq", "dec_blocked")

    def __init__(self, S, n):
        self.S = S
        self.pc = np.zeros(n, dtype=np.int64)
        self.regs = np.tile(S.init_regs, (n, 1))
        self.pending = np.zeros((n, S.n_regs), dtype=bool)
        self.in_q = np.zeros((n, max(S.K, 1)), dtype=bool)
        # Per-row occupancy count of ``in_q`` — maintained at every
        # enqueue/dequeue so runnability and window-limit checks are a
        # scalar compare instead of an axis reduction per tick.
        self.q_n = np.zeros(n, dtype=np.int64)
        self.q_seq = np.zeros((n, max(S.K, 1)), dtype=np.int64)
        self.q_addr = np.zeros((n, max(S.K, 1)), dtype=np.int64)
        self.q_val = np.zeros((n, max(S.K, 1)), dtype=np.int64)
        self.q_cmp = np.zeros((n, max(S.K, 1)), dtype=np.int64)
        self.seq = np.zeros(n, dtype=np.int64)
        self.dec_blocked = np.zeros(n, dtype=bool)

    def take(self, idx):
        """Compact every array down to the rows in ``idx``."""
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[idx])


class _BatchState:
    """All mutable SoA state for one lockstep batch."""

    __slots__ = ("n", "rng", "threads", "glob", "shm", "iv", "any_intent",
                 "sm", "fuel", "stalled", "progress", "budget", "dec")

    def __init__(self, cell, n, rng):
        self.n = n
        self.rng = rng
        # -- incantation draws, one Bernoulli matrix per batch --------
        # Zero-probability slots can never fire: draw only the live
        # columns.
        cols = cell._nz_prob_cols
        self.iv = np.zeros((n, len(cell.draw_probs)), dtype=bool)
        if len(cols):
            self.iv[:, cols] = (rng.random((n, len(cols)))
                                < cell._probs_row[cols])
        self.any_intent = self.iv.any(axis=1)
        # The retired stale-L1 model's draws, kept so recorded streams
        # stay put: staleness per row, then warm lines per used SM.
        rng.random(n)
        if cell.l1_active:
            rng.random((n, cell.n_sms_eff, cell.n_global))
        # -- memory image ---------------------------------------------
        self.glob = np.tile(cell._init_global_row, (n, 1))
        if cell.n_shared:
            self.shm = np.tile(cell._init_shared_row,
                               (n, cell.n_sms_eff, 1))
        else:
            self.shm = None
        # -- CTA placement --------------------------------------------
        if cell.shuffle_placement:
            cta_sm = rng.integers(0, cell.n_sms, size=(n, cell.n_ctas))
            self.sm = cta_sm[:, cell._thread_cta_row]
        else:
            self.sm = np.tile(cell._sm_compact_row, (n, 1))
        # -- scheduler bookkeeping ------------------------------------
        self.fuel = np.full(n, cell.fuel, dtype=np.int64)
        self.stalled = np.zeros(n, dtype=np.int64)
        self.progress = np.zeros(n, dtype=bool)
        self.budget = np.zeros(n, dtype=np.int64)
        self.dec = np.zeros(n, dtype=bool)
        self.threads = [_ThreadState(S, n) for S in cell._thread_statics]

    def take(self, idx):
        for name in ("iv", "any_intent", "glob", "sm", "fuel", "stalled",
                     "progress", "budget", "dec"):
            setattr(self, name, getattr(self, name)[idx])
        if self.shm is not None:
            self.shm = self.shm[idx]
        for thread in self.threads:
            thread.take(idx)
        self.n = len(self.iv)


class BatchCell:
    """One cell lowered to lockstep numpy execution.

    Same constructor parameters as
    :class:`~repro.sim.compile.CompiledCell`, less ``scope_blind``, plus
    ``plan``; answers ``run_many(iterations, rng, histogram)`` (the
    whole point) and a compatibility ``run_once(rng)``.  Holds numpy
    buffers and kernels — not picklable; process-pool backends compile
    per worker, exactly like compiled cells.
    """

    def __init__(self, test, chip, intensity=1.0, shuffle_placement=False,
                 plan=None):
        require_numpy()
        self.test = test
        self.chip = chip
        self.intensity = intensity
        self.shuffle_placement = shuffle_placement
        address_map = test.address_map()
        self.address_map = address_map

        placement = test.scope_tree.classify()
        required_scope = Scope.GL if placement == "inter-cta" else Scope.CTA
        total_instructions = sum(len(program) for program in test.threads)
        self.fuel = _FUEL_PER_INSTRUCTION * max(total_instructions, 1)

        # -- intent draw plan (same slot order as the fast engine) ----
        relax = chip.relax_probability
        probs = [relax("r_pass_w") * intensity,
                 relax("w_pass_w") * intensity,
                 relax("r_pass_r") * intensity,
                 relax("w_pass_r") * intensity,
                 relax("rr_hazard") * intensity,
                 relax("volatile_relax"),
                 chip.p_mixed_hazard * intensity]
        for scope in _SCOPES:
            probs.append(chip.p_mixed_bypass.get(scope, 0.0))
            probs.append(chip.p_ca_bypass.get(scope, 0.0))
        self.draw_probs = probs
        self._probs_row = np.asarray(probs)
        # Columns that can actually fire — chunks draw only these.
        self._nz_prob_cols = np.nonzero(self._probs_row > 0.0)[0]
        self.l1_active = chip.l1_stale_reads
        self.atomic_ordered = chip.atomic_ordered
        self.volatile_ordered = chip.volatile_ordered
        self.n_sms = max(chip.n_sms, 1)
        self.n_ctas = test.scope_tree.n_ctas

        # -- dense location indexing ----------------------------------
        names = sorted(address_map)
        addresses = sorted(address_map[name] for name in names)
        name_of = {address_map[name]: name for name in names}
        self._addr_sorted = np.asarray(addresses, dtype=np.int64)
        gloc_of, sloc_of, shared_of = {}, {}, {}
        init_global, init_shared = [], []
        for address in addresses:
            name = name_of[address]
            value = test.initial_value(name)
            if test.space_of(name) is MemorySpace.SHARED:
                shared_of[address] = True
                sloc_of[address] = len(init_shared)
                init_shared.append(value)
            else:
                shared_of[address] = False
                gloc_of[address] = len(init_global)
                init_global.append(value)
        self.n_global = len(init_global)
        self.n_shared = len(init_shared)
        self._init_global_row = np.asarray(init_global, dtype=np.int64)
        self._init_shared_row = np.asarray(init_shared, dtype=np.int64)
        # aligned lookup tables for dynamically computed addresses
        self._loc_shared = np.asarray(
            [shared_of[a] for a in addresses], dtype=bool)
        self._loc_gidx = np.asarray(
            [gloc_of.get(a, -1) for a in addresses], dtype=np.int64)
        self._loc_sidx = np.asarray(
            [sloc_of.get(a, -1) for a in addresses], dtype=np.int64)
        self._shared_of = shared_of
        self._gloc_of = gloc_of
        self._sloc_of = sloc_of

        # -- per-thread lowering --------------------------------------
        self.thread_ctas = [test.scope_tree.placement(program.name).cta
                            for program in test.threads]
        observed = tuple(test.observed_registers())
        if plan is not None and (plan.get("version") != PLAN_VERSION
                                 or len(plan.get("threads", ()))
                                 != len(test.threads)):
            plan = None  # stale or foreign plan: fall back to analysis
        self._thread_statics = []
        for index, (program, cta) in enumerate(zip(test.threads,
                                                   self.thread_ctas)):
            compiler = _BatchCompiler(self, program, test, cta,
                                      required_scope, chip)
            if plan is not None:
                # Plan-cache hit: skip the analysis pass (register
                # columns + slot tables) and regenerate only the
                # closures, which cannot be pickled.
                compiler.S = plan["threads"][index]
                self._thread_statics.append(compiler.codegen())
            else:
                self._thread_statics.append(compiler.compile())
        self._static_sm_row = np.asarray(
            [cta % self.n_sms for cta in self.thread_ctas], dtype=np.int64)
        self._thread_cta_row = np.asarray(self.thread_ctas, dtype=np.int64)
        # With static placement only a handful of SMs are ever
        # addressed, so per-SM state (shared memory, the warm-line draw)
        # is sized for the used subset only and ``sm`` ids are
        # remapped to compact indices; ``_sm_used[compact]`` recovers
        # the real id (needed when a row is handed to the fast engine).
        # Row compaction then copies kilobytes instead of megabytes.
        if self.shuffle_placement:
            self._sm_used = np.arange(self.n_sms, dtype=np.int64)
        else:
            self._sm_used = np.unique(self._static_sm_row)
        self.n_sms_eff = len(self._sm_used)
        remap = np.zeros(self.n_sms, dtype=np.int64)
        remap[self._sm_used] = np.arange(self.n_sms_eff, dtype=np.int64)
        self._sm_compact_row = remap[self._static_sm_row]

        # -- final-state plans ----------------------------------------
        self._obs_plan = []
        for key in observed:
            tid, reg = key
            S = self._thread_statics[tid]
            self._obs_plan.append((key, tid, S.reg_index.get(reg)))
        self._final_plan = []
        for name, address in sorted(address_map.items()):
            if shared_of[address]:
                self._final_plan.append((name, True, sloc_of[address]))
            else:
                self._final_plan.append((name, False, gloc_of[address]))
        self._stall_limit = (4 * len(self._thread_statics)
                             * (len(test.threads) + 4))

        # -- straggler-tail support -----------------------------------
        # Address per dense location column (gloc/sloc order), used to
        # rebuild a dict-keyed memory image when a row is handed off to
        # the fast engine.
        self._gaddr_list = [a for a in addresses if not shared_of[a]]
        self._saddr_list = [a for a in addresses if shared_of[a]]
        self._fast = None        # lazily compiled fast-engine twin
        self._reg_names = None   # per-thread column -> register name
        self._profile = None     # retirement telemetry of the last run
        self._last_ticks = (0, 0)
        # Static state-bytes-per-row estimate feeding adaptive chunk
        # sizing (refined by the measured retirement profile per call).
        # The L1 term prices no state the engine holds; it stays because
        # the chunk widths, and so the recorded streams, depend on it.
        per_row = 8 * (len(self.draw_probs) + self.n_global
                       + self.n_sms_eff * self.n_shared + 8)
        if self.l1_active:
            per_row += 9 * self.n_sms_eff * self.n_global
        for S in self._thread_statics:
            per_row += 8 * (2 * S.n_regs + 4 * max(S.K, 1) + 4)
        self._row_bytes = per_row

    # -- plan extraction ---------------------------------------------------

    def plan(self):
        """Picklable lowering plan for the cross-worker plan cache.

        Contains the analysis product of every thread — register
        columns, slot tables, pair metadata — with the unpicklable
        closures stripped; :class:`BatchCell` rebuilt with ``plan=``
        skips straight to closure generation.
        """
        stripped = []
        for S in self._thread_statics:
            clone = _ThreadStatic(S.tid, S.cta)
            clone.init_regs = S.init_regs
            clone.n_regs = S.n_regs
            clone.reg_index = S.reg_index
            clone.slots = S.slots
            clone.K = S.K
            clone.static_order = S.static_order
            clone.window_check = S.window_check
            clone.slot_of = S.slot_of
            stripped.append(clone)
        return {"version": PLAN_VERSION, "threads": stripped}

    # -- execution ---------------------------------------------------------

    def run_many(self, iterations, rng, histogram=None):
        """Run ``iterations`` lockstep iterations into ``histogram``.

        ``rng`` is the shard's ``random.Random``; the numpy generator
        seed derives from it deterministically (the documented
        stream-break), so results remain a pure function of the shard
        seed.
        """
        if histogram is None:
            from ..harness.histogram import Histogram
            histogram = Histogram()
        blocks = []
        tails = []
        remaining = iterations
        width = self._first_width()
        ticks = row_ticks = peak = 0
        while remaining > 0:
            size = min(remaining, width)
            gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
            st = _BatchState(self, size, gen)
            survivor = self._advance(st, blocks, int(_TAIL_FRACTION * size))
            chunk_ticks, chunk_rows = self._last_ticks
            ticks += chunk_ticks
            row_ticks += chunk_rows
            peak = max(peak, size)
            if survivor is not None and survivor.n:
                tails.append(survivor)
            remaining -= size
            width = self._next_width(size, ticks, row_ticks)
        drained = sum(t.n for t in tails)
        if tails:
            self._drain_tail(tails, rng, blocks)
        self._profile = {"ticks": ticks, "row_ticks": row_ticks,
                         "peak_width": peak, "drained": drained}
        matrix = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        states, counts = _unique_rows(matrix)
        add = histogram.add
        for row, count in zip(states.tolist(), counts.tolist()):
            add(self._final_state(row), count)
        return histogram

    # -- adaptive chunk sizing --------------------------------------------

    def _first_width(self):
        """Chunk width before any retirement has been measured: bound
        the *full-width* working set by the cache target."""
        cap = _CACHE_TARGET // max(self._row_bytes, 1)
        return int(min(MAX_BATCH, max(_MIN_CHUNK, cap)))

    def _next_width(self, width, ticks, row_ticks):
        """Refine the chunk width from the measured retirement profile.

        ``row_ticks / ticks`` is the mean number of live rows per tick
        over the chunks executed so far *in this call* — compaction
        shrinks the hot arrays as rows retire, so the sustained working
        set is ``row_bytes * live_fraction`` per row of width.  The
        profile is a deterministic function of the shard seed, keeping
        sharded results independent of execution order; it is never
        carried across ``run_many`` calls.
        """
        if not ticks:
            return width
        live_fraction = min(max(row_ticks / ticks / max(width, 1), 0.05),
                            1.0)
        cap = int(_CACHE_TARGET / max(self._row_bytes * live_fraction, 1))
        return int(min(MAX_BATCH, max(_MIN_CHUNK, cap)))

    def run_once(self, rng):
        """Compatibility single-iteration entry (``GpuMachine`` shape)."""
        (state,) = self.run_many(1, rng).counts
        return state

    def _final_state(self, row):
        nreg = len(self._obs_plan)
        regs = tuple((plan[0], int(value))
                     for plan, value in zip(self._obs_plan, row[:nreg]))
        mem = tuple((plan[0], int(value))
                    for plan, value in zip(self._final_plan, row[nreg:]))
        return FinalState(regs, mem)

    def _collect(self, st, idx):
        """Observable matrix rows (obs regs, then final memory) of ``idx``."""
        columns = []
        for _key, tid, col in self._obs_plan:
            if col is None:
                columns.append(np.zeros(len(idx), dtype=np.int64))
            else:
                columns.append(st.threads[tid].regs[idx, col])
        for _name, shared, loc in self._final_plan:
            if shared:
                # A modified shared location lives in one CTA's SM for
                # valid tests; min over SM copies is the reference
                # engine's sorted-first tie-break and the identity when
                # all copies agree.  Unused SMs (dropped by the compact
                # allocation) always hold the initial image, so fold it
                # back into the min.
                column = st.shm[idx, :, loc].min(axis=1)
                if self.n_sms_eff != self.n_sms:
                    column = np.minimum(column,
                                        self._init_shared_row[loc])
                columns.append(column)
            else:
                columns.append(st.glob[idx, loc])
        return np.stack(columns, axis=1)

    def _advance(self, st, blocks, tail_rows):
        """Advance a lockstep batch until every row retires — or, with
        ``tail_rows > 0``, until at most that many rows remain live.

        Retired rows' observables are appended to ``blocks``.  Returns
        ``None`` when the batch fully retired, or the suspended
        :class:`_BatchState` (compacted to the live rows) for the
        straggler hand-off.  Suspension happens at a tick boundary —
        before the scheduler draw — so the surviving rows' state is a
        complete, consistent machine snapshot.
        """
        rng = st.rng
        statics = self._thread_statics
        T = len(statics)
        stall_limit = self._stall_limit
        test_name = self.test.name
        ticks = 0
        row_ticks = 0
        # Scalar guards let the per-tick safety checks skip their array
        # reductions entirely until they can possibly fire: fuel drops
        # by at most one per tick, and a stall streak grows by at most
        # one per tick, so entry-time extrema bound both from above.
        # Compaction only removes rows, which keeps the bounds sound.
        fuel_floor = int(st.fuel.min())
        stall_head = stall_limit - int(st.stalled.max())
        while True:
            # ``cum[:, t]`` counts the runnable threads up to ``t``:
            # its last column is the per-row runnable count (zero means
            # retired) and it directly drives the scheduler pick, so
            # one cumulative sum replaces the any/sum reductions a
            # separate ``runnable``/``alive`` formulation needs.
            runnable = np.empty((st.n, T), dtype=bool)
            for t in range(T):
                th = st.threads[t]
                runnable[:, t] = (th.pc < th.S.ncode) | (th.q_n > 0)
            cum = runnable.cumsum(axis=1)
            counts = cum[:, T - 1]
            n_alive = int(np.count_nonzero(counts))
            if n_alive == 0:
                blocks.append(self._collect(st, np.arange(st.n)))
                self._last_ticks = (ticks, row_ticks)
                return None
            if tail_rows and n_alive <= tail_rows:
                done = np.nonzero(counts == 0)[0]
                if len(done):
                    blocks.append(self._collect(st, done))
                    st.take(np.nonzero(counts != 0)[0])
                self._last_ticks = (ticks, row_ticks)
                return st
            if n_alive <= (st.n * 3) // 4 and st.n - n_alive >= 64:
                dead = counts == 0
                blocks.append(self._collect(st, np.nonzero(dead)[0]))
                keep = np.nonzero(~dead)[0]
                st.take(keep)
                cum = cum[keep]
                counts = cum[:, T - 1]
            alive = counts > 0
            if ticks >= fuel_floor and bool((alive & (st.fuel <= 0)).any()):
                raise FuelExhausted(
                    "test %s did not terminate (likely livelock)"
                    % test_name)
            # -- choose one runnable thread per iteration -------------
            draw = (rng.random(st.n) * counts).astype(np.int64)
            chosen = (cum <= draw[:, None]).sum(axis=1)
            st.progress[:] = False
            for t in range(T):
                # Retired rows land at ``chosen == T`` (every cumsum
                # entry is zero), so the pick itself masks them out.
                sel = np.nonzero(chosen == t)[0]
                if not len(sel):
                    continue
                th = st.threads[t]
                todo = sel[~th.dec_blocked[sel]]
                if len(todo):
                    self._decode(st, th, todo)
                self._issue_round(st, th, sel)
            idle = alive & ~st.progress
            st.stalled[st.progress] = 0
            st.stalled += idle
            if (ticks >= stall_head
                    and bool((st.stalled > stall_limit).any())):
                raise SimulationError(
                    "all threads stalled in %s — dependency deadlock?"
                    % test_name)
            st.fuel -= alive
            ticks += 1
            row_ticks += n_alive

    # -- straggler hand-off ------------------------------------------------

    def _concat_states(self, states):
        """Coalesce suspended chunk tails into one dense batch state."""
        if len(states) == 1:
            return states[0]
        st = _BatchState.__new__(_BatchState)
        st.rng = states[0].rng
        for name in ("iv", "any_intent", "glob", "sm", "fuel", "stalled",
                     "progress", "budget", "dec"):
            setattr(st, name,
                    np.concatenate([getattr(s, name) for s in states]))
        st.shm = (np.concatenate([s.shm for s in states])
                  if states[0].shm is not None else None)
        threads = []
        for t, S in enumerate(self._thread_statics):
            th = _ThreadState.__new__(_ThreadState)
            th.S = S
            for name in _ThreadState._ARRAYS:
                setattr(th, name,
                        np.concatenate([getattr(s.threads[t], name)
                                        for s in states]))
            threads.append(th)
        st.threads = threads
        st.n = len(st.iv)
        return st

    def _drain_tail(self, tails, rng, blocks):
        """Finish suspended straggler rows off the lockstep fast path.

        The per-chunk tails first coalesce into one dense batch (so a
        sharded request pays one final narrow batch rather than one
        sparse tail per chunk) and re-enter lockstep while still wide
        enough to amortize dispatch; once at most :data:`_DRAIN_ROWS`
        rows survive, each is transplanted onto the embedded fast-engine
        cell and run to completion scalar-style.  Each drained row gets
        an independent ``random.Random`` seeded from the batch
        generator — the same documented stream-break contract as the
        chunk seeds themselves.
        """
        st = self._concat_states(tails)
        st.rng = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        while st is not None and st.n > _DRAIN_ROWS:
            threshold = max(int(_TAIL_FRACTION * st.n), _DRAIN_ROWS)
            st = self._advance(st, blocks, threshold)
        if st is None or not st.n:
            return
        fast = self._fast_twin()
        width = len(self._obs_plan) + len(self._final_plan)
        out = np.empty((st.n, width), dtype=np.int64)
        for row in range(st.n):
            snap = self._snapshot_row(st, row)
            seed = int(st.rng.integers(0, 1 << 63))
            out[row, :] = fast.resume(snap, _random.Random(seed))
        blocks.append(out)

    def _fast_twin(self):
        """The embedded fast-engine cell straggler rows resume on."""
        if self._fast is None:
            # Looked up when called, not bound at import: this module
            # loads on first use, which may fall while a tracer (such
            # as perfbench's) has wrapped compile_cell, and a name bound
            # then would keep the wrapper after the tracer restores it.
            from .compile import compile_cell
            self._fast = compile_cell(
                self.test, self.chip, intensity=self.intensity,
                shuffle_placement=self.shuffle_placement)
        return self._fast

    def _thread_reg_names(self):
        if self._reg_names is None:
            self._reg_names = []
            for S in self._thread_statics:
                names = [""] * len(S.reg_index)
                for name, col in S.reg_index.items():
                    names[col] = name
                self._reg_names.append(names)
        return self._reg_names

    def _snapshot_row(self, st, row):
        """Extract one row's complete machine state for the fast engine.

        The payload mirrors the fast cell's mutable state exactly: the
        drawn intent vector, the memory image keyed by real addresses,
        and per-thread register files, pending sets and queues (slot
        index ``k`` maps onto the fast cell's ``k``-th op static — both
        compilers assign slots to memory instructions in program order).
        """
        reg_names = self._thread_reg_names()
        threads = []
        for t, th in enumerate(st.threads):
            names = reg_names[t]
            regs = {name: int(value)
                    for name, value in zip(names, th.regs[row].tolist())}
            pending = {names[c] for c in np.nonzero(th.pending[row])[0]}
            queue = []
            for k in np.nonzero(th.in_q[row])[0].tolist():
                queue.append((int(th.q_seq[row, k]), k,
                              int(th.q_addr[row, k]),
                              int(th.q_val[row, k]),
                              int(th.q_cmp[row, k])))
            queue.sort()  # the fast queue is seq-ascending by invariant
            threads.append({"sm": int(self._sm_used[st.sm[row, t]]),
                            "pc": int(th.pc[row]),
                            "seq": int(th.seq[row]),
                            "regs": regs, "pending": pending,
                            "queue": queue})
        glob = {address: int(value) for address, value in
                zip(self._gaddr_list, st.glob[row].tolist())}
        shared = [{} for _ in range(self.n_sms)]
        if self.n_shared:
            for s, real in enumerate(self._sm_used.tolist()):
                shared[real] = {address: int(value) for address, value in
                                zip(self._saddr_list,
                                    st.shm[row, s].tolist())}
        return {"iv": [bool(v) for v in st.iv[row].tolist()],
                "fuel": int(st.fuel[row]),
                "global": glob, "shared": shared, "threads": threads}

    # -- frontend ----------------------------------------------------------

    def _decode(self, st, th, rows):
        """In-order decode sweeps for the selected iteration rows.

        Kernels drop rows from ``st.dec`` on a stall; every surviving
        row retires at least one instruction per sweep, so the decode
        budget bounds the sweep count.
        """
        S = th.S
        st.budget[rows] = BUDGET
        st.dec[rows] = True
        code = S.code
        ncode = S.ncode
        live = rows
        while True:
            live = live[st.dec[live] & (st.budget[live] > 0)]
            live = live[th.pc[live] < ncode]
            if not len(live):
                break
            # ``here`` is fixed for the sweep; ``pcs``/``dmask`` are
            # per-position shadows refreshed only for the rows the last
            # kernel actually ran (a step kernel is the only thing that
            # can clear ``st.dec`` or move a pc), so the refresh cost
            # scales with the kernel's row set, not the sweep width.
            here = live[st.dec[live]]
            if not len(here):
                break
            pcs = th.pc[here]
            # ``counts[p]`` is the exact number of still-decodable rows
            # sitting at pc ``p``, maintained incrementally as kernels
            # move rows — it gates the scan (absent pcs cost one python
            # int check instead of a full-width compare) and makes the
            # post-mask emptiness test free: a positive count
            # guarantees a non-empty ``sub``.
            counts = np.bincount(pcs, minlength=ncode)
            dmask = None
            for p in range(ncode):
                if not counts[p]:
                    continue
                sub_mask = pcs == p
                if dmask is not None:
                    sub_mask &= dmask
                sub = here[sub_mask]
                code[p](st, th, sub)
                newpc = th.pc[sub]
                newd = st.dec[sub]
                pcs[sub_mask] = newpc
                if dmask is None:
                    dmask = np.ones(len(here), dtype=bool)
                dmask[sub_mask] = newd
                moved = newpc[newd]
                moved = moved[moved < ncode]
                counts[p] = 0
                if len(moved):
                    counts += np.bincount(moved, minlength=ncode)
        st.dec[rows] = False
        # Every kernel pairs a budget decrement with instruction
        # retirement, so a single compare recovers per-row progress —
        # the per-kernel ``st.progress`` scatters this replaces were a
        # measurable share of tick time.  Rows of other threads are
        # untouched: each row schedules one thread per tick, so decode
        # row sets are disjoint across threads.
        budgets = st.budget[rows]
        st.progress[rows] = budgets < BUDGET
        # Re-running decode with unchanged registers cannot progress
        # (decode is deterministic in regs/pending/pc), so skip it until
        # one of this thread's loads completes — unless the budget ran
        # out, in which case next tick's fresh budget must retry.
        th.dec_blocked[rows[budgets > 0]] = True

    # -- issue -------------------------------------------------------------

    def _issue_round(self, st, th, sel):
        S = th.S
        if S.K == 0:
            return
        if S.K == 1:
            rows = sel[th.in_q[sel, 0]]
            if not len(rows):
                return
            th.in_q[rows, 0] = False
            th.q_n[rows] = 0
            S.issue[0](st, th, rows)
            st.progress[rows] = True
            return
        inq = th.in_q[sel]
        # One reduction yields per-slot membership counts as plain ints;
        # the per-slot/per-pair ``.any()`` gates they replace were the
        # dominant fixed per-tick cost at narrow batch widths.
        nq = inq.sum(axis=0).tolist()
        if not any(nq):
            return
        occupied = [j for j in range(S.K) if nq[j]]
        if len(occupied) == 1:
            # Only one slot holds queued ops: nothing can block it,
            # every row's single eligible op is trivially the oldest,
            # and no reordering draw happens (``ecount`` is 1 for every
            # eligible row), so the general selection machinery reduces
            # to issuing that slot directly.  This is the steady state
            # of a spin loop — the dominant issue shape on the app
            # scenarios — and consumes no generator draws, exactly like
            # the general path it shortcuts.
            j = occupied[0]
            rows = sel[inq[:, j]]
            th.in_q[rows, j] = False
            th.q_n[rows] -= 1
            S.issue[j](st, th, rows)
            if S.window_check:
                th.dec_blocked[rows] = False
            st.progress[rows] = True
            return
        # Selection only ever involves the occupied slots, so the
        # matrices below are built over that column subset; slot
        # indices map back through ``occupied`` at issue time.  The
        # subset preserves ascending column order, which keeps argmin
        # tie-breaks and the cumulative reorder pick identical to the
        # full-width formulation (empty columns contribute nothing to
        # either), so the generator stream is untouched.
        m = len(occupied)
        inq_o = inq[:, occupied]
        q_seq_o = th.q_seq[np.ix_(sel, occupied)]
        elig = inq_o.copy()
        static_order = S.static_order
        for jj, j in enumerate(occupied):
            blocked = None
            for i, fn in S.pairs[j]:
                if not nq[i]:
                    continue
                ii = occupied.index(i)
                older = inq_o[:, ii]
                if not static_order:
                    older = older & (q_seq_o[:, ii] < q_seq_o[:, jj])
                    if not older.any():
                        continue
                if fn is not None:
                    older = older & fn(st, th, sel)
                    if not older.any():
                        continue
                blocked = older if blocked is None else (blocked | older)
            if blocked is not None:
                elig[:, jj] &= ~blocked
        has = elig.any(axis=1)
        if not has.any():
            return
        rows = sel[has]
        elig = elig[has]
        seqs = q_seq_o[has]
        ecount = elig.sum(axis=1)
        seqm = np.where(elig, seqs, _NO_SEQ)
        oldest = seqm.argmin(axis=1)
        # Under an active intent the engine *seeks* reorderings: uniform
        # pick among the non-oldest eligible ops when there are several.
        use_rand = st.any_intent[rows] & (ecount > 1)
        if use_rand.any():
            cand = elig.copy()
            cand[np.arange(len(rows)), oldest] = False
            target = (st.rng.random(len(rows))
                      * np.maximum(ecount - 1, 0)).astype(np.int64)
            cum = cand.cumsum(axis=1)
            rand_col = (cum <= target[:, None]).sum(axis=1)
            col = np.where(use_rand, rand_col, oldest)
        else:
            col = oldest
        kcounts = np.bincount(col, minlength=m).tolist()
        for kk, k in enumerate(occupied):
            if not kcounts[kk]:
                continue
            krows = rows[col == kk]
            th.in_q[krows, k] = False
            th.q_n[krows] -= 1
            S.issue[k](st, th, krows)
        if S.window_check:
            # A freed queue slot can unblock a window-limited decode.
            th.dec_blocked[rows] = False
        st.progress[rows] = True


class _BatchCompiler:
    """Lowers one thread program into vector step kernels + slot tables.

    Step kernels share a calling convention: ``step(st, th, rows)``
    with ``rows`` an int index array of the iterations decoding this
    pc.  A kernel drops stalled rows from ``st.dec`` and advances the
    rest (pc, budget, progress) — mirroring the reference decode loop's
    per-thread semantics across all selected iterations at once.
    """

    def __init__(self, cell, program, test, cta, required_scope, chip):
        self.cell = cell
        self.program = program
        self.test = test
        self.required_scope = required_scope
        self.chip = chip
        self.S = _ThreadStatic(program.tid, cta)

    # -- register table ----------------------------------------------------

    def _register_columns(self):
        names = set()
        for (tid, name) in self.test.reg_init:
            if tid == self.program.tid:
                names.add(name)
        for (tid, name) in self.test.observed_registers():
            if tid == self.program.tid:
                names.add(name)
        for instruction in self.program.instructions:
            guard = getattr(instruction, "guard", None)
            if guard is not None:
                names.add(guard.reg)
            for attr in ("dst", "src", "a", "b", "cmp", "new"):
                operand = getattr(instruction, attr, None)
                if isinstance(operand, Reg):
                    names.add(operand.name)
            addr = getattr(instruction, "addr", None)
            if addr is not None and isinstance(addr.base, Reg):
                names.add(addr.base.name)
        return {name: col for col, name in enumerate(sorted(names))}

    def compile(self):
        self.analyze()
        return self.codegen()

    def analyze(self):
        """First pass: register columns and slot tables.

        Everything this pass produces is picklable — it is exactly the
        payload of :meth:`BatchCell.plan` that the cross-worker plan
        cache stores; :meth:`codegen` rebuilds only the closures.
        """
        S = self.S
        S.reg_index = self._register_columns()
        S.n_regs = max(len(S.reg_index), 1)
        init = np.zeros(S.n_regs, dtype=np.int64)
        for (tid, name), binding in self.test.reg_init.items():
            if tid != self.program.tid:
                continue
            if isinstance(binding, Loc):
                init[S.reg_index[name]] = self.cell.address_map[binding.name]
            else:
                init[S.reg_index[name]] = binding.value
        S.init_regs = init

        # First pass: build slot statics for every memory instruction so
        # pair compilation can see the full table.
        from ..ptx.instructions import (AtomAdd, AtomCas, AtomExch, AtomInc,
                                        Ld, Membar, St)
        slot_of = {}
        for pc, instruction in enumerate(self.program.instructions):
            slot = None
            if isinstance(instruction, Ld):
                cop = (None if instruction.volatile
                       else instruction.effective_cop.value)
                slot = _SlotStatic(K_LOAD,
                                   dst_col=S.reg_index[instruction.dst.name],
                                   cop=cop, volatile=instruction.volatile)
                self._bind_addr(slot, instruction.addr)
            elif isinstance(instruction, St):
                cop = (None if instruction.volatile
                       else instruction.effective_cop.value)
                slot = _SlotStatic(K_STORE, cop=cop,
                                   volatile=instruction.volatile)
                self._bind_addr(slot, instruction.addr)
                self._bind_value(slot, instruction.src, "val")
            elif isinstance(instruction, AtomCas):
                slot = _SlotStatic(K_CAS,
                                   dst_col=S.reg_index[instruction.dst.name])
                self._bind_addr(slot, instruction.addr)
                self._bind_value(slot, instruction.new, "val")
                self._bind_value(slot, instruction.cmp, "cmp")
            elif isinstance(instruction, AtomExch):
                slot = _SlotStatic(K_EXCH,
                                   dst_col=S.reg_index[instruction.dst.name])
                self._bind_addr(slot, instruction.addr)
                self._bind_value(slot, instruction.src, "val")
            elif isinstance(instruction, AtomInc):
                slot = _SlotStatic(K_ADD,
                                   dst_col=S.reg_index[instruction.dst.name])
                self._bind_addr(slot, instruction.addr)
                slot.val_const = 1
            elif isinstance(instruction, AtomAdd):
                slot = _SlotStatic(K_ADD,
                                   dst_col=S.reg_index[instruction.dst.name])
                self._bind_addr(slot, instruction.addr)
                self._bind_value(slot, instruction.src, "val")
            elif isinstance(instruction, Membar):
                mixed_slot, ca_slot = _bypass_slots(instruction.scope)
                slot = _SlotStatic(K_FENCE, mixed_slot=mixed_slot,
                                   ca_slot=ca_slot)
                slot.static_addr = -1  # fences carry no address
            if slot is not None:
                slot_of[pc] = len(S.slots)
                S.slots.append(slot)
        S.K = len(S.slots)
        S.window_check = S.K >= WINDOW
        S.static_order = not self.program.has_loops()
        S.slot_of = slot_of
        return S

    def codegen(self):
        """Second pass: step kernels, pair-blocking plans, issue kernels
        — the closures, regenerated per process on a plan-cache hit."""
        S = self.S
        slot_of = S.slot_of
        S.code = [self._compile_one(pc, instruction, slot_of.get(pc))
                  for pc, instruction in enumerate(self.program.instructions)]
        S.ncode = len(S.code)
        S.pairs = [self._compile_pairs(j) for j in range(S.K)]
        S.issue = [self._compile_issue(k) for k in range(S.K)]
        return S

    def _bind_addr(self, slot, addr):
        if isinstance(addr.base, Loc):
            address = self.cell.address_map[addr.base.name] + addr.offset
            slot.addr_const = address
            slot.static_addr = address
            slot.shared = self.cell._shared_of.get(address, False)
            if slot.shared:
                slot.sloc = self.cell._sloc_of[address]
            else:
                gloc = self.cell._gloc_of.get(address)
                if gloc is None:
                    raise SimulationError(
                        "access to uninstalled address %#x" % address)
                slot.gloc = gloc
        else:
            slot.addr_const = addr.offset
            slot.addr_reg_col = self.S.reg_index[addr.base.name]

    def _bind_value(self, slot, operand, which):
        if isinstance(operand, Imm):
            setattr(slot, which + "_const", operand.value)
        elif isinstance(operand, Reg):
            setattr(slot, which + "_reg_col", self.S.reg_index[operand.name])
        else:
            raise SimulationError("bad value operand %r" % (operand,))

    # -- step kernels ------------------------------------------------------

    def _compile_one(self, pc, instruction, slot_index):
        from ..ptx.instructions import (Add, And, Bra, Cvt, Label, Membar,
                                        Mov, Setp, Xor)
        if slot_index is not None:
            if isinstance(instruction, Membar):
                step = self._compile_fence_push(slot_index,
                                                instruction.scope)
            else:
                step = self._compile_push(slot_index)
        elif isinstance(instruction, Mov):
            step = self._compile_mov(instruction)
        elif isinstance(instruction, (Add, And, Xor)):
            ops = {"add": lambda a, b: (a + b) & 0xFFFFFFFF,
                   "and": lambda a, b: a & b,
                   "xor": lambda a, b: a ^ b}
            step = self._compile_binary(instruction, ops[instruction.opcode])
        elif isinstance(instruction, Setp):
            if instruction.cmp == "eq":
                fn = lambda a, b: (a == b).astype(np.int64)
            else:
                fn = lambda a, b: (a != b).astype(np.int64)
            step = self._compile_binary(instruction, fn)
        elif isinstance(instruction, Cvt):
            step = self._compile_cvt(instruction)
        elif isinstance(instruction, Bra):
            target = self.program.labels[instruction.target]

            def step(st, th, rows, _target=target):
                th.pc[rows] = _target
                st.budget[rows] -= 1
        elif isinstance(instruction, Label):
            def step(st, th, rows):
                th.pc[rows] += 1
                st.budget[rows] -= 1
        else:
            raise SimulationError(
                "batch engine cannot lower %r" % (instruction,))

        guard = getattr(instruction, "guard", None)
        if guard is None:
            return step
        gcol = self.S.reg_index[guard.reg]
        wanted = not guard.negated

        def guarded(st, th, rows, _inner=step, _gcol=gcol, _wanted=wanted):
            stall = th.pending[rows, _gcol]
            if stall.any():
                st.dec[rows[stall]] = False
                rows = rows[~stall]
                if not len(rows):
                    return
            skip = (th.regs[rows, _gcol] != 0) != _wanted
            if skip.any():
                hop = rows[skip]
                th.pc[hop] += 1
                st.budget[hop] -= 1
                rows = rows[~skip]
            if len(rows):
                _inner(st, th, rows)

        return guarded

    def _ready_guard(self, cols):
        """Build the pending-source stall check for ``cols``."""
        cols = tuple(c for c in cols if c is not None)

        def check(st, th, rows):
            if not cols:
                return rows
            stall = th.pending[rows, cols[0]]
            for c in cols[1:]:
                stall = stall | th.pending[rows, c]
            if stall.any():
                st.dec[rows[stall]] = False
                rows = rows[~stall]
            return rows

        return check

    def _compile_push(self, k):
        slot = self.S.slots[k]
        ready = self._ready_guard((slot.addr_reg_col, slot.val_reg_col,
                                   slot.cmp_reg_col))
        addr_const = slot.addr_const
        addr_col = slot.addr_reg_col
        val_const, val_col = slot.val_const, slot.val_reg_col
        cmp_const, cmp_col = slot.cmp_const, slot.cmp_reg_col
        dst = slot.dst_col
        window_check = None
        if self.S.window_check:
            window_check = True
        name = self.test.name

        def step(st, th, rows, _k=k):
            rows = ready(st, th, rows)
            if not len(rows):
                return
            if window_check:
                full = th.q_n[rows] >= WINDOW
                if full.any():
                    st.dec[rows[full]] = False
                    rows = rows[~full]
                    if not len(rows):
                        return
            if th.in_q[rows, _k].any():
                raise SimulationError(
                    "batch engine: op re-enqueued while still pending "
                    "in %s (unguarded loop over a memory op?)" % name)
            th.in_q[rows, _k] = True
            th.q_n[rows] += 1
            th.q_seq[rows, _k] = th.seq[rows]
            th.seq[rows] += 1
            if addr_col is None:
                th.q_addr[rows, _k] = addr_const
            else:
                th.q_addr[rows, _k] = th.regs[rows, addr_col] + addr_const
            if val_col is None:
                th.q_val[rows, _k] = val_const
            else:
                th.q_val[rows, _k] = th.regs[rows, val_col]
            if cmp_col is None:
                th.q_cmp[rows, _k] = cmp_const
            else:
                th.q_cmp[rows, _k] = th.regs[rows, cmp_col]
            if dst is not None:
                th.pending[rows, dst] = True
            th.pc[rows] += 1
            st.budget[rows] -= 1

        return step

    def _compile_fence_push(self, k, scope):
        covered = scope.covers(self.required_scope)
        damping = self.chip.underscoped_fence_damping

        def push(st, th, rows, _k=k):
            th.in_q[rows, _k] = True
            th.q_n[rows] += 1
            th.q_seq[rows, _k] = th.seq[rows]
            th.seq[rows] += 1
            th.q_addr[rows, _k] = -1
            th.pc[rows] += 1
            st.budget[rows] -= 1

        if covered:
            # The scope check is pre-bound: a sufficient fence always
            # enters the queue, with no per-iteration decision.
            return push

        # Under-scoped fence: the chip's damping fraction of decodes
        # sees it as a no-op (non-zero membar.cta rows of Fig. 3).
        def step(st, th, rows):
            enq = st.rng.random(len(rows)) >= damping
            skip = rows[~enq]
            if len(skip):
                th.pc[skip] += 1
                st.budget[skip] -= 1
            go = rows[enq]
            if len(go):
                push(st, th, go)

        return step

    def _compile_mov(self, instruction):
        dst = self.S.reg_index[instruction.dst.name]
        if isinstance(instruction.src, Loc):
            const = self.cell.address_map[instruction.src.name]

            def step(st, th, rows, _dst=dst, _const=const):
                th.regs[rows, _dst] = _const
                th.pc[rows] += 1
                st.budget[rows] -= 1

            return step
        if isinstance(instruction.src, Imm):
            const = instruction.src.value

            def step(st, th, rows, _dst=dst, _const=const):
                th.regs[rows, _dst] = _const
                th.pc[rows] += 1
                st.budget[rows] -= 1

            return step
        src = self.S.reg_index[instruction.src.name]
        ready = self._ready_guard((src,))

        def step(st, th, rows, _dst=dst, _src=src):
            rows = ready(st, th, rows)
            if not len(rows):
                return
            th.regs[rows, _dst] = th.regs[rows, _src]
            th.pc[rows] += 1
            st.budget[rows] -= 1

        return step

    def _compile_binary(self, instruction, fn):
        dst = self.S.reg_index[instruction.dst.name]
        aconst, acol = self._value_spec(instruction.a)
        bconst, bcol = self._value_spec(instruction.b)
        ready = self._ready_guard((acol, bcol))

        def step(st, th, rows, _dst=dst, _fn=fn):
            rows = ready(st, th, rows)
            if not len(rows):
                return
            a = aconst if acol is None else th.regs[rows, acol]
            b = bconst if bcol is None else th.regs[rows, bcol]
            th.regs[rows, _dst] = _fn(a, b)
            th.pc[rows] += 1
            st.budget[rows] -= 1

        return step

    def _compile_cvt(self, instruction):
        dst = self.S.reg_index[instruction.dst.name]
        src = self.S.reg_index[instruction.src.name]
        ready = self._ready_guard((src,))

        def step(st, th, rows, _dst=dst, _src=src):
            rows = ready(st, th, rows)
            if not len(rows):
                return
            th.regs[rows, _dst] = th.regs[rows, _src]
            th.pc[rows] += 1
            st.budget[rows] -= 1

        return step

    def _value_spec(self, operand):
        if isinstance(operand, Imm):
            return operand.value, None
        if isinstance(operand, Reg):
            return 0, self.S.reg_index[operand.name]
        raise SimulationError("bad value operand %r" % (operand,))

    # -- pair-blocking plans ----------------------------------------------

    def _compile_pairs(self, j):
        """Blocking plan for slot ``j``: a list of ``(i, fn)`` where
        ``fn(st, th, sel) -> bool[len(sel)]`` (or None for an
        unconditional block) is evaluated against every older in-queue
        slot ``i``."""
        S = self.S
        if S.static_order:
            candidates = range(j)
        else:
            candidates = (i for i in range(S.K) if i != j)
        return [(i, self._compile_pair(j, i)) for i in candidates]

    def _compile_pair(self, j, i):
        S = self.S
        yst, ost = S.slots[j], S.slots[i]
        if yst.kind == K_FENCE:
            return None  # a fence may pass nothing
        if ost.kind == K_FENCE:
            # Only a .ca load may slip past a fence (Figs. 3 and 4),
            # gated by the scope's (mixed, ca) bypass intents and the
            # same-address-probe over earlier loads in the queue.
            if not yst.ca_load:
                return None
            loads = tuple(c for c in range(S.K) if S.slots[c].is_load)
            mixed_slot, ca_slot = ost.mixed_slot, ost.ca_slot

            def fence_block(st, th, sel, _j=j, _i=i, _loads=loads):
                addr_j = th.q_addr[sel, _j]
                fence_seq = th.q_seq[sel, _i]
                before = None
                for c in _loads:
                    probe = (th.in_q[sel, c]
                             & (th.q_seq[sel, c] < fence_seq)
                             & (th.q_addr[sel, c] == addr_j))
                    before = probe if before is None else (before | probe)
                passes = np.where(before, st.iv[sel, mixed_slot],
                                  st.iv[sel, ca_slot])
                return ~passes

            return fence_block
        if self.chip.atomic_ordered and (yst.atomic or ost.atomic):
            return None
        volatile_pair = yst.volatile and ost.volatile
        if volatile_pair and self.chip.volatile_ordered:
            return None
        pass_slot = yst.pass_pair[ost.is_store]
        both_loads = yst.kind == K_LOAD and ost.kind == K_LOAD
        hz_slot = (SLOT_RR_HAZARD if yst.cop == ost.cop
                   else SLOT_MIXED_HAZARD)
        static = (yst.static_addr is not None and ost.static_addr is not None)
        if static:
            same = yst.static_addr == ost.static_addr
            if same and not both_loads:
                return None  # same-address non-load-load pairs never reorder
            slot = hz_slot if same else pass_slot
            if volatile_pair:
                def fn(st, th, sel, _slot=slot):
                    return ~st.iv[sel, _slot] | ~st.iv[sel, SLOT_VOLATILE]
            else:
                def fn(st, th, sel, _slot=slot):
                    return ~st.iv[sel, _slot]
            return fn

        def fn(st, th, sel, _j=j, _i=i):
            same = th.q_addr[sel, _j] == th.q_addr[sel, _i]
            if both_loads:
                blocked = np.where(same, ~st.iv[sel, hz_slot],
                                   ~st.iv[sel, pass_slot])
            else:
                blocked = same | ~st.iv[sel, pass_slot]
            if volatile_pair:
                blocked = blocked | ~st.iv[sel, SLOT_VOLATILE]
            return blocked

        return fn

    # -- issue kernels ----------------------------------------------------

    def _compile_issue(self, k):
        slot = self.S.slots[k]
        tid = self.S.tid
        kind = slot.kind
        if kind == K_FENCE:
            # A fence orders through the queue alone: issuing it leaves
            # memory as it is.
            return lambda st, th, rows: None
        if kind == K_STORE:
            return self._compile_issue_store(k, slot, tid)
        if kind == K_LOAD:
            return self._compile_issue_load(k, slot, tid)
        return self._compile_issue_atomic(k, slot, tid)

    def _dynamic_locs(self, addresses):
        """Resolve raw addresses to dense location indices (vectorized
        twin of the uninstalled-address check)."""
        table = self.cell._addr_sorted
        pos = np.searchsorted(table, addresses)
        pos_clipped = np.minimum(pos, len(table) - 1)
        valid = table[pos_clipped] == addresses
        if not valid.all():
            bad = int(addresses[~valid][0])
            raise SimulationError(
                "access to uninstalled address %#x" % bad)
        return pos_clipped

    def _compile_issue_load(self, k, slot, tid):
        cell = self.cell
        dst = slot.dst_col
        dynamic = slot.static_addr is None

        def issue(st, th, rows, _k=k):
            if dynamic:
                sm = st.sm[rows, tid]
                locs = self._dynamic_locs(th.q_addr[rows, _k])
                shared = cell._loc_shared[locs]
                value = np.zeros(len(rows), dtype=np.int64)
                if shared.any():
                    s = shared
                    value[s] = st.shm[rows[s], sm[s],
                                      cell._loc_sidx[locs[s]]]
                g = ~shared
                if g.any():
                    value[g] = st.glob[rows[g], cell._loc_gidx[locs[g]]]
            elif slot.shared:
                value = st.shm[rows, st.sm[rows, tid], slot.sloc]
            else:
                value = st.glob[rows, slot.gloc]
            th.regs[rows, dst] = value
            th.pending[rows, dst] = False
            th.dec_blocked[rows] = False

        return issue

    def _compile_issue_store(self, k, slot, tid):
        cell = self.cell
        dynamic = slot.static_addr is None

        def issue(st, th, rows, _k=k):
            value = th.q_val[rows, _k]
            if dynamic:
                sm = st.sm[rows, tid]
                locs = self._dynamic_locs(th.q_addr[rows, _k])
                shared = cell._loc_shared[locs]
                if shared.any():
                    s = shared
                    st.shm[rows[s], sm[s], cell._loc_sidx[locs[s]]] = value[s]
                g = ~shared
                if g.any():
                    st.glob[rows[g], cell._loc_gidx[locs[g]]] = value[g]
            elif slot.shared:
                st.shm[rows, st.sm[rows, tid], slot.sloc] = value
            else:
                st.glob[rows, slot.gloc] = value

        return issue

    def _compile_issue_atomic(self, k, slot, tid):
        cell = self.cell
        kind = slot.kind
        dst = slot.dst_col
        dynamic = slot.static_addr is None

        def issue(st, th, rows, _k=k):
            sm = st.sm[rows, tid]
            value = th.q_val[rows, _k]
            if dynamic:
                locs = self._dynamic_locs(th.q_addr[rows, _k])
                shared = cell._loc_shared[locs]
                sidx = cell._loc_sidx[locs]
                gidx = cell._loc_gidx[locs]
                old = np.zeros(len(rows), dtype=np.int64)
                if shared.any():
                    s = shared
                    old[s] = st.shm[rows[s], sm[s], sidx[s]]
                g = ~shared
                if g.any():
                    old[g] = st.glob[rows[g], gidx[g]]
            elif slot.shared:
                old = st.shm[rows, sm, slot.sloc]
            else:
                old = st.glob[rows, slot.gloc]
            if kind == K_CAS:
                write = old == th.q_cmp[rows, _k]
                new = value
            elif kind == K_EXCH:
                write = None  # unconditional
                new = value
            else:  # K_ADD
                write = None
                new = old + value
            if write is None:
                if dynamic:
                    if shared.any():
                        s = shared
                        st.shm[rows[s], sm[s], sidx[s]] = new[s]
                    g = ~shared
                    if g.any():
                        st.glob[rows[g], gidx[g]] = new[g]
                elif slot.shared:
                    st.shm[rows, sm, slot.sloc] = new
                else:
                    st.glob[rows, slot.gloc] = new
            elif write.any():
                w = write
                if dynamic:
                    ws = w & shared
                    if ws.any():
                        st.shm[rows[ws], sm[ws], sidx[ws]] = new[ws]
                    wg = w & ~shared
                    if wg.any():
                        st.glob[rows[wg], gidx[wg]] = new[wg]
                elif slot.shared:
                    st.shm[rows[w], sm[w], slot.sloc] = new[w]
                else:
                    st.glob[rows[w], slot.gloc] = new[w]
            th.regs[rows, dst] = old
            th.pending[rows, dst] = False
            th.dec_blocked[rows] = False

        return issue


def compile_batch_cell(test, chip, intensity=1.0, shuffle_placement=False,
                       plan=None):
    """Lower one campaign cell into a :class:`BatchCell`.

    Parameters mirror :func:`~repro.sim.compile.compile_cell`, less
    ``scope_blind`` (the Sec. 6 machine runs on the other engines); the
    result answers ``run_many(iterations, rng, histogram)`` with the
    same outcome *distribution* as the fast engine (see the module
    docstring for the RNG-stream contract).  Raises
    :class:`~repro.errors.ConfigurationError` when numpy is missing.

    ``plan`` is an optional pre-analyzed lowering plan from
    :meth:`BatchCell.plan` — a plan-cache hit skips the analysis pass.
    """
    return BatchCell(test, chip, intensity=intensity,
                     shuffle_placement=shuffle_placement, plan=plan)
