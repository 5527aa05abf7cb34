"""Post-hoc safety monitors over run traces.

Each monitor scans the trace once (list order breaks timestamp ties, and
the runtime appends records in causal order) and returns human-readable
violation strings; an empty result means the property held.

Monitored properties:
  mutual exclusion   critical sections per lock are pairwise disjoint
                     (half-open [enter, exit) intervals)
  barrier episodes   no participant departs episode i before every
                     participant has arrived at episode i
  semaphore bound    grants never exceed initial resources plus posts
  condvar semantics  every wake follows a sleep by the same core and
                     happens holding the re-acquired associated lock
  termination        enters/exits and sleeps/wakes pair up; op totals
                     match the workload's declared counts when given
"""

from __future__ import annotations

from collections import defaultdict, deque


def _core(rec) -> tuple:
    return (rec.unit, rec.local)


def check_mutual_exclusion(records) -> list[str]:
    violations = []
    holder: dict[int, tuple] = {}
    for rec in records:
        if rec.kind == "cs_enter":
            other = holder.get(rec.addr)
            if other is not None:
                violations.append(
                    f"lock {rec.addr:#x}: core {_core(rec)} entered at {rec.t} ps "
                    f"while core {other} was inside")
            else:
                holder[rec.addr] = _core(rec)
        elif rec.kind == "cs_exit":
            if holder.get(rec.addr) != _core(rec):
                violations.append(
                    f"lock {rec.addr:#x}: core {_core(rec)} exited at {rec.t} ps "
                    f"without holding it (holder: {holder.get(rec.addr)})")
            else:
                del holder[rec.addr]
    for addr, core in sorted(holder.items()):
        violations.append(f"lock {addr:#x}: core {core} never exited")
    return violations


def check_barriers(records) -> list[str]:
    violations = []
    arrives: dict[int, dict[tuple, list]] = defaultdict(lambda: defaultdict(list))
    departs: dict[int, dict[tuple, list]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        if rec.kind == "barrier_arrive":
            arrives[rec.addr][_core(rec)].append(rec.t)
        elif rec.kind == "barrier_depart":
            departs[rec.addr][_core(rec)].append(rec.t)
    for addr in sorted(arrives):
        counts = {len(v) for v in arrives[addr].values()}
        counts |= {len(departs[addr].get(c, [])) for c in arrives[addr]}
        if len(counts) != 1:
            violations.append(
                f"barrier {addr:#x}: unequal episode counts across participants: {sorted(counts)}")
            continue
        episodes = counts.pop()
        cores = sorted(arrives[addr])
        for i in range(episodes):
            latest_arrive = max(arrives[addr][c][i] for c in cores)
            first_depart = min(departs[addr][c][i] for c in cores)
            if first_depart < latest_arrive:
                violations.append(
                    f"barrier {addr:#x} episode {i}: departure at {first_depart} ps "
                    f"precedes last arrival at {latest_arrive} ps")
    return violations


def check_semaphores(records) -> list[str]:
    violations = []
    initial: dict[int, int] = {}
    for rec in records:
        if rec.kind == "sem_acquire":
            initial[rec.addr] = max(initial.get(rec.addr, 0), rec.info)
    avail = dict(initial)
    for rec in records:
        if rec.kind == "sem_release":
            avail[rec.addr] = avail.get(rec.addr, 0) + 1
        elif rec.kind == "sem_acquire":
            avail[rec.addr] = avail.get(rec.addr, 0) - 1
            if avail[rec.addr] < 0:
                violations.append(
                    f"semaphore {rec.addr:#x}: grant to core {_core(rec)} at {rec.t} ps "
                    f"exceeds initial resources plus posts")
    return violations


def check_condvars(records) -> list[str]:
    violations = []
    sleeps: dict[tuple, deque] = defaultdict(deque)  # (addr, core) -> sleep times
    enters: set = set()  # (core, t, lock addr)
    for rec in records:
        if rec.kind == "cs_enter":
            enters.add((_core(rec), rec.t, rec.addr))
    for rec in records:
        if rec.kind == "cond_sleep":
            sleeps[(rec.addr, _core(rec))].append(rec.t)
        elif rec.kind == "cond_wake":
            key = (rec.addr, _core(rec))
            if not sleeps[key]:
                violations.append(
                    f"condvar {rec.addr:#x}: core {_core(rec)} woke at {rec.t} ps "
                    f"without a pending sleep")
                continue
            slept = sleeps[key].popleft()
            if slept > rec.t:
                violations.append(
                    f"condvar {rec.addr:#x}: core {_core(rec)} woke at {rec.t} ps "
                    f"before sleeping at {slept} ps")
            if rec.info and (_core(rec), rec.t, rec.info) not in enters:
                violations.append(
                    f"condvar {rec.addr:#x}: core {_core(rec)} woke at {rec.t} ps "
                    f"without re-acquiring lock {rec.info:#x}")
    for (addr, core), pending in sorted(sleeps.items()):
        if pending:
            violations.append(
                f"condvar {addr:#x}: core {core} has {len(pending)} sleep(s) never woken")
    return violations


def check_termination(records, expected_ops: dict | None = None) -> list[str]:
    violations = []
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        counts[rec.kind] += 1
    pairs = (("cs_enter", "cs_exit", "lock sections"),
             ("barrier_arrive", "barrier_depart", "barrier episodes"),
             ("cond_sleep", "cond_wake", "condvar waits"))
    for a, b, label in pairs:
        if counts[a] != counts[b]:
            violations.append(f"unbalanced {label}: {counts[a]} vs {counts[b]}")
    if expected_ops:
        observed = {
            "lock_acquire": counts["cs_enter"] - counts["cond_wake"],
            # a cond wait releases its lock too: its cs_exit counts
            "lock_release": counts["cs_exit"],
            "barrier_wait": counts["barrier_depart"],
            "sem_wait": counts["sem_acquire"],
            "sem_post": counts["sem_release"],
            "cond_wait": counts["cond_wake"],
        }
        for op, want in sorted(expected_ops.items()):
            got = observed.get(op)
            if got is not None and got != want:
                violations.append(f"operation count mismatch for {op}: expected {want}, got {got}")
    return violations


def verify_trace(records, expected_ops: dict | None = None) -> list[str]:
    """Run every monitor; returns all violations found."""
    violations = []
    violations += check_mutual_exclusion(records)
    violations += check_barriers(records)
    violations += check_semaphores(records)
    violations += check_condvars(records)
    violations += check_termination(records, expected_ops)
    return violations
