"""The Cederman-Tsigas work-stealing deque (Sec. 3.2.1, Fig. 6).

The GPU Computing Gems implementation assumes no weak memory behaviour:
it uses no fences.  The paper distils two bugs, both of which lose a
task:

* **message passing** (Fig. 7): a steal sees the incremented ``tail`` but
  reads a *stale* task from the ``tasks`` array;
* **load buffering** (Fig. 8): a steal reads the task pushed by a *later*
  pop-then-push, while the pop's CAS reads the steal's CAS.

This module implements the deque operations as CUDA-eDSL kernels (one
deque slot — the distilled scenarios touch a single index) in published
and fixed (fenced) variants, plus a two-slot *round trip* (owner pushes,
thief steals and hands a processed task back through the second slot).

:mod:`repro.apps.scenario` builds the ``deque-mp``, ``deque-lb`` and
``deque-rt`` scenarios from these kernels, and
:func:`repro.apps.campaign.run_app_campaign` runs them; losses are
counted by each scenario's loss predicate over the outcome histogram.
"""

from ..compiler.cuda import (AddTo, AtomicCas, AtomicExchange, Cond, If,
                             Kernel, Load, Store, Threadfence)

#: Memory locations: one task slot, the two volatile indices of Fig. 6.
TASK, HEAD, TAIL = "task0", "head", "tail"

#: The second slot of the round-trip scenario: the thief publishes its
#: processed task here and bumps the matching index.
TASK2, TAIL2 = "task1", "tail2"


def push_kernel(task_value, fenced):
    """``push(task)`` (Fig. 6 lines 2-5): write the task, bump ``tail``.

    The fix (line 4, ``(+)``): a ``__threadfence()`` between the task
    write and the ``tail`` increment.
    """
    statements = [Store(TASK, task_value)]
    if fenced:
        statements.append(Threadfence())
    statements.extend([
        Load("t", TAIL, volatile=True),
        AddTo("t", "t", 1),
        Store(TAIL, "t", volatile=True),
    ])
    return Kernel(statements)


def steal_kernel(fenced):
    """``steal()`` (Fig. 6 lines 6-14): read ``tail``; if work is
    available read the task and claim it with a CAS on ``head``.

    The published code reads the task with no fence on either side; the
    fix adds fences before and after the task read (lines 9 and 11).
    The stolen task value is reported in ``stolen`` and the steal's
    success in ``claimed``.
    """
    statements = [Load("old", TAIL, volatile=True)]
    body = []
    if fenced:
        body.append(Threadfence())
    body.append(Load("task", TASK))
    if fenced:
        body.append(Threadfence())
    body.extend([
        AtomicCas("claimed", HEAD, 0, 1),
        Store("stolen", "task"),
        Store("claimed_out", "claimed"),
    ])
    statements.append(If(Cond("old", "ne", 0), body=tuple(body)))
    return Kernel(statements)


def pop_then_push_kernel(task_value, fenced):
    """The pop-returns-empty-then-push sequence of Fig. 8's left thread
    (Fig. 6 lines 15-25 followed by a push to the same slot).

    The pop's CAS on ``head`` observes whether a steal got there first;
    the fix (line 21, ``(+)``) fences between the CAS and the later push
    (and the reset of ``head`` uses ``atomicExch``, line 23).
    """
    statements = [AtomicCas("r0", HEAD, 0, 1)]
    if fenced:
        statements.append(Threadfence())
    statements.extend([
        Store("popped_out", "r0"),
        Store(TASK, task_value),
    ])
    if fenced:
        statements.append(AtomicExchange("reset", HEAD, 0))
    return Kernel(statements)


def owner_roundtrip_kernel(task_value, fenced):
    """The round trip's owner: push a task to slot 0, then try to pop
    the thief's processed task from slot 1.

    The pop polls ``tail2`` once (launches where the thief has not
    published yet simply see nothing) and, when the index has moved,
    reads the second slot — the same push/steal shapes as Fig. 6, so the
    fix is the same fence placement.
    """
    statements = [Store(TASK, task_value)]
    if fenced:
        statements.append(Threadfence())
    statements.extend([
        Load("t", TAIL, volatile=True),
        AddTo("t", "t", 1),
        Store(TAIL, "t", volatile=True),
        Load("t2", TAIL2, volatile=True),
    ])
    body = []
    if fenced:
        body.append(Threadfence())
    body.extend([
        Load("r", TASK2),
        Store("got", "r"),
    ])
    statements.append(If(Cond("t2", "ne", 0), body=tuple(body)))
    return Kernel(statements)


def thief_roundtrip_kernel(result_value, fenced):
    """The round trip's thief: steal slot 0, publish the processed task
    in slot 1 and bump ``tail2`` — a second, reversed push whose missing
    fence (between the slot-1 write and the ``tail2`` bump) loses the
    processed task on weak chips exactly like Fig. 7's.
    """
    statements = [Load("t", TAIL, volatile=True)]
    body = []
    if fenced:
        body.append(Threadfence())
    body.append(Load("task", TASK))
    if fenced:
        body.append(Threadfence())
    body.extend([
        AtomicCas("claimed", HEAD, 0, 1),
        Store("stolen", "task"),
        Store(TASK2, result_value),
    ])
    if fenced:
        body.append(Threadfence())
    body.extend([
        Load("t2", TAIL2, volatile=True),
        AddTo("t2", "t2", 1),
        Store(TAIL2, "t2", volatile=True),
    ])
    statements.append(If(Cond("t", "ne", 0), body=tuple(body)))
    return Kernel(statements)
