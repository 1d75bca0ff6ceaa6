"""The published GPU spin locks the paper studies (Sec. 3.2.2-3.2.3).

Three locks, each in its published (buggy) and fixed form:

* :func:`cuda_by_example_lock` — Fig. 2, from Nvidia's *CUDA by Example*
  App. 1: CAS acquire, exchange release, **no fences**.  Nvidia published
  an erratum after the paper reported the bug.
* :func:`stuart_owens_lock` — the exchange-based lock of Stuart & Owens,
  who chose ``atomicExch`` *instead of* a fence "because the atomic queue
  has predictable behavior".
* :func:`he_yu_lock` — Fig. 10, from He & Yu's GPU transaction engine:
  the release is a plain store, and the trailing ``__threadfence`` sits
  *after* the release where it cannot help.

Each lock is a pair (acquire statements, release statements) to splice
into a kernel around a critical section.  :func:`ticket_kernel` adds a
ticket-lock counter client (plain-store handoff between tickets — the
same unfenced release-vs-critical-section race, without any atomic in
the release path).

:mod:`repro.apps.scenario` builds the ``dot-*``, ``ticket`` and
``isolation`` scenarios from these kernels, and
:func:`repro.apps.campaign.run_app_campaign` runs them.
"""

from ..compiler.cuda import (AddTo, AtomicCas, AtomicExchange, Cond, If,
                             Kernel, Load, Store, Threadfence, While,
                             do_while_cas_spin)

MUTEX = "mutex"

#: Ticket-lock locations: the handoff index and the protected counter.
SERVING, COUNTER = "serving", "counter"


def cuda_by_example_lock(fenced):
    """Fig. 2: ``lock()``/``unlock()`` of CUDA by Example (App. 1).

    ``fenced=True`` adds the two ``__threadfence()`` calls marked ``(+)``
    in the paper — the fix Nvidia's erratum now requires.
    """
    acquire = [do_while_cas_spin(MUTEX)]
    if fenced:
        acquire.append(Threadfence())
    release = []
    if fenced:
        release.append(Threadfence())
    release.append(AtomicExchange("old", MUTEX, 0))
    return acquire, release


def stuart_owens_lock(fenced):
    """Stuart-Owens: acquire and release via unconditional exchange."""
    acquire = [While(Cond("got", "ne", 0),
                     body=(AtomicExchange("got", MUTEX, 1),))]
    if fenced:
        acquire.append(Threadfence())
    release = []
    if fenced:
        release.append(Threadfence())
    release.append(AtomicExchange("old", MUTEX, 0))
    return acquire, release


def he_yu_lock(fixed):
    """Fig. 10: the He-Yu transaction lock.

    The published version releases with a plain volatile store and fences
    *after* the release (useless).  The fix: fence at entry and exit,
    release via ``atomicExch`` (PTX annuls atomic guarantees when plain
    stores touch the same location, Sec. 3.2.3).
    """
    acquire = [do_while_cas_spin(MUTEX, var="lockValue")]
    if fixed:
        acquire.append(Threadfence())
    release = []
    if fixed:
        release.append(Threadfence())
        release.append(AtomicExchange("old", MUTEX, 0))
    else:
        release.append(Store(MUTEX, 0))
        release.append(Threadfence())  # the misplaced fence of Fig. 10
    return acquire, release


#: The lock builders by registry key — the vocabulary shared by the
#: scenario registry, the CLI and the docs.
LOCKS = {
    "cbe": cuda_by_example_lock,
    "so": stuart_owens_lock,
    "heyu": he_yu_lock,
}


def accumulate_kernel(lock, local_value):
    """One dot-product CTA: add a local partial sum into the global sum
    under the lock (CUDA by Example App. 1.2)."""
    acquire, release = lock
    body = [
        Load("temp", "sum"),
        AddTo("temp", "temp", local_value),
        Store("sum", "temp"),
    ]
    return Kernel(list(acquire) + body + list(release))


def ticket_kernel(ticket, local_value, fenced):
    """One ticket-lock client: spin until served, bump the counter, hand
    the lock to the next ticket with a plain volatile store.

    Tickets are pre-assigned (thread *i* holds ticket *i* — the
    deterministic handoff order a 2-CTA ticket lock produces anyway), so
    the scenario isolates the *release* race: without the fences, the
    ``serving`` handoff can overtake the critical section's ``counter``
    write, and the next ticket reads a stale counter — a lost increment
    with no atomic anywhere in the release path.
    """
    statements = [While(Cond("s", "ne", ticket),
                        body=(Load("s", SERVING, volatile=True),))]
    if fenced:
        statements.append(Threadfence())
    statements.extend([
        Load("tmp", COUNTER),
        AddTo("tmp", "tmp", local_value),
        Store(COUNTER, "tmp"),
    ])
    if fenced:
        statements.append(Threadfence())
    statements.append(Store(SERVING, ticket + 1, volatile=True))
    return Kernel(statements)


def reader_kernel(fixed):
    """The isolation scenario's T0: read ``x`` in the critical section it
    already holds, then release with the (published or fixed) He-Yu
    release sequence."""
    _, release = he_yu_lock(fixed)
    return Kernel([Load("r0", "x")] + list(release) + [Store("out", "r0")])


def writer_kernel():
    """The isolation scenario's T1: acquire (one CAS attempt) and write
    ``x`` in its own critical section."""
    return Kernel(
        [AtomicCas("got", MUTEX, 0, 1),
         If(Cond("got", "eq", 0), body=(Store("x", 1),))])
