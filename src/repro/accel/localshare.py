"""Dynamic local sharing: the achievable makespan bound (Sec. 4.1).

A PE may push an incoming task to a neighbour within ``hop`` positions
whose task queue is shorter; the result is returned to the owner's ACC.
Tasks are single multiply-accumulates, so the fluid (fractional)
relaxation is essentially exact, and the minimum achievable round
makespan has a closed form by a Hall-type argument on the 1-D PE chain:

    T*(h) = max over row-blocks [i..j] of
            ceil( sum(W[i..j]) / #receivers([i..j], h) )

where ``#receivers`` counts PEs within ``h`` of the block (clipped at
the array edges). Any window violating this is a certificate that no
schedule beats T*; conversely a water-filling schedule achieves it.

Boundary windows are dominated by prefix/suffix windows (widening a
clipped window to the edge only adds work without adding receivers), so
the implementation evaluates all prefix windows and all suffix windows
exactly, then prices the interior family (``L + 2*hop`` receivers for a
window of length ``L``) by seed and verify: the seed is the larger edge
bound or the heaviest singleton window, one O(n) running-min scan checks
that no interior window beats it, and only the rounds that fail
binary-search the bound value. The max of the three bounds is exact.
Everything vectorizes over a batch of load vectors
(:func:`share_window_bounds_batch`), which is what the cycle model's
auto-tuning phase uses to price several candidate rounds in a single
kernel call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def share_makespan(loads, hop, *, efficiency=1.0):
    """Minimum cycles for one round under ``hop``-local sharing.

    ``loads`` is the per-PE owned work for this round. ``efficiency``
    models the online heuristic's distance from the ideal bound
    (1.0 = ideal). Returns an ``int`` cycle count.
    """
    loads = np.asarray(loads, dtype=np.int64)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    return int(
        share_makespan_batch(loads[None, :], hop, efficiency=efficiency)[0]
    )


def share_makespan_batch(loads_matrix, hop, *, efficiency=1.0):
    """Per-round makespans for a ``(rounds, n_pes)`` batch of load vectors.

    The batched form of :func:`share_makespan`: row ``r`` of the result
    equals ``share_makespan(loads_matrix[r], hop, efficiency=...)``. One
    call prices every candidate round of an auto-tuning chunk (or a
    single frozen round — the scalar entry point delegates here), so the
    rebalancing hot path never evaluates the Hall bound in a Python
    loop over rounds. Returns an ``int64`` array of length ``rounds``.
    """
    loads = np.asarray(loads_matrix, dtype=np.int64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ConfigError(
            "loads_matrix must be a (rounds, n_pes) array with n_pes >= 1"
        )
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError(f"efficiency must be in (0, 1], got {efficiency}")
    if loads.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if hop == 0:
        ideal = loads.max(axis=1)
    else:
        interior, prefix, suffix = share_window_bounds_batch(loads, hop)
        ideal = np.maximum(np.maximum(interior, prefix), suffix)
    return np.ceil(ideal / efficiency).astype(np.int64)


def share_window_bounds(loads, hop):
    """The three families of Hall lower bounds; the max is the makespan.

    Returns ``(interior, prefix, suffix)`` bounds as Python ints (see
    :func:`share_window_bounds_batch` for what each entry holds). Exposed
    separately for the property tests, which cross-check against a
    brute-force evaluation of every window.
    """
    loads = np.asarray(loads, dtype=np.int64)
    interior, prefix, suffix = share_window_bounds_batch(loads[None, :], hop)
    return int(interior[0]), int(prefix[0]), int(suffix[0])


def share_window_bounds_batch(loads_matrix, hop):
    """Batched :func:`share_window_bounds` over ``(rounds, n_pes)`` loads.

    Returns three ``int64`` arrays of length ``rounds``: the interior,
    prefix and suffix bounds. Their rowwise max is the exact makespan.
    The prefix and suffix entries are exact. The interior entry is
    exact whenever it binds (exceeds both edge families and every
    singleton window); otherwise it equals the seed
    ``max(prefix, suffix, ceil(max_load / (1 + 2*hop)))``, which is
    then the makespan. Every family vectorizes over the round axis.
    """
    loads = np.asarray(loads_matrix, dtype=np.int64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ConfigError(
            "loads_matrix must be a (rounds, n_pes) array with n_pes >= 1"
        )
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    n_rounds, n = loads.shape
    hop = int(hop)
    cumsum = np.zeros((n_rounds, n + 1), dtype=np.int64)
    np.cumsum(loads, axis=1, out=cumsum[:, 1:])

    # Prefix windows [0..j]: receivers are [0 .. min(j + hop, n - 1)].
    j = np.arange(n)
    prefix_recv = np.minimum(j + hop, n - 1) + 1
    prefix_bound = _ceil_div(cumsum[:, 1:], prefix_recv).max(axis=1)

    # Suffix windows [i..n-1]: receivers are [max(i - hop, 0) .. n-1].
    suffix_work = cumsum[:, n:] - cumsum[:, :-1]
    suffix_recv = n - np.maximum(j - hop, 0)
    suffix_bound = _ceil_div(suffix_work, suffix_recv).max(axis=1)

    max_load = np.maximum(loads.max(axis=1), 0)
    if hop == 0:
        return max_load, prefix_bound, suffix_bound
    # Interior windows of length L get L + 2*hop receivers, unclipped at
    # n: clipped windows are dominated by the edge families. Rows whose
    # seed survives one scan are done; the rest binary-search
    # (seed, max_load], as no window can need more than the max load.
    interior = np.maximum(
        np.maximum(prefix_bound, suffix_bound),
        _ceil_div(max_load, 1 + 2 * hop),
    )
    failing = np.flatnonzero(_interior_exceeds(cumsum, interior, hop))
    if failing.size:
        rows = cumsum[failing]
        lo = interior[failing] + 1
        hi = max_load[failing]
        active = np.flatnonzero(lo < hi)
        while active.size:
            mid = (lo[active] + hi[active]) // 2
            exceeded = _interior_exceeds(rows[active], mid, hop)
            lo[active[exceeded]] = mid[exceeded] + 1
            hi[active[~exceeded]] = mid[~exceeded]
            active = np.flatnonzero(lo < hi)
        interior[failing] = lo
    return interior, prefix_bound, suffix_bound


def _interior_exceeds(cumsum, bound, hop):
    """Per row: does some window have work above ``bound * (L + 2*hop)``?

    ``cumsum`` is ``(rows, n + 1)`` with a leading zero column and
    ``bound`` holds one candidate value per row. The test linearizes:
    with ``D[k] = cumsum[k] - bound*k``, a window ``[k1, k2)`` exceeds
    iff ``D[k2] - D[k1] > 2*hop*bound``, so one running-min pass over
    ``D`` answers it for every window at once.
    """
    level = cumsum - bound[:, None] * np.arange(cumsum.shape[1])
    runmin = np.minimum.accumulate(level[:, :-1], axis=1)
    return (level[:, 1:] - runmin).max(axis=1) > 2 * hop * bound


def share_effective_loads(loads, hop, *, cap=None):
    """A feasible per-PE executed-work vector at the optimal makespan.

    Earliest-deadline-first transport: every PE's load is a "job"
    releasable at receiver ``p - hop`` with deadline ``p + hop``. Both
    the release point and the deadline are monotone in the sender index,
    so EDF order *is* sender order, and the schedule collapses to greedy
    water-filling: job ``s`` starts at
    ``max(finish[s - 1], release[s] * cap)`` on a timeline where each
    receiver contributes ``cap`` cycles of capacity. That recurrence has
    the closed form ``finish = cumsum(loads) + running_max(release * cap
    - cumsum_before)``, and slicing the resulting busy intervals at the
    receiver boundaries (one ``searchsorted``) yields the executed-work
    vector — no Python loop, no heap. Used by the area model to size
    task queues and by tests to certify the bound is achievable.
    Conservation holds exactly: ``sum(effective) == sum(loads)``.

    ``cap`` lets a caller assert it already evaluated the Hall bound for
    these exact loads; it must equal ``share_makespan(loads, hop)``
    within ``1e-9``, else :class:`~repro.errors.ConfigError` is raised
    (the old implementation silently trusted the caller). Validation is
    by optimality certificate rather than recomputation: the EDF
    schedule itself proves ``cap`` is feasible and ``cap - 1`` is not,
    which for integer task counts is exactly equality with the Hall
    bound — so the cycle model's hot path, which always passes the
    bound it just evaluated, never pays a second Hall evaluation.

    The pre-vectorization heap implementation survives as
    :func:`_share_effective_loads_reference`; the property suite asserts
    elementwise equality between the two.
    """
    loads = np.asarray(loads, dtype=np.float64)
    n = loads.size
    if cap is None:
        cap = float(share_makespan(loads, hop))
        start, finish, total = _edf_schedule(loads, hop, cap)
        # Feasibility: each job must fit within its deadline receiver's
        # capacity. At a correct cap this never fires (the Hall bound
        # is achievable); it guards the model against regressions.
        overrun = _edf_overrun(finish, hop, cap)
        late = np.flatnonzero(overrun > 1e-9)
        if late.size:
            sender = int(late[0])
            receiver = min(sender + hop, n - 1)
            raise AssertionError(
                f"EDF transport failed at receiver {receiver}: "
                f"{float(overrun[sender])} work past its deadline "
                f"(cap={cap})"
            )
    else:
        # Validation already evaluated the schedule at cap and proved
        # every deadline holds — reuse it rather than recomputing.
        cap, (start, finish, total) = _validate_cap(loads, hop, cap)

    # Slice the busy timeline at receiver boundaries p * cap: work done
    # before boundary x is (all jobs finishing by x) + the partial job
    # straddling it; consecutive differences give per-receiver work.
    boundaries = cap * np.arange(1, n + 1)
    idx = np.searchsorted(finish, boundaries, side="right")
    done = np.concatenate(([0.0], total))
    partial = np.maximum(boundaries - start[np.minimum(idx, n - 1)], 0.0)
    filled = np.where(idx < n, done[np.minimum(idx, n)] + partial, total[-1])
    return np.diff(np.concatenate(([0.0], filled)))


def _edf_schedule(loads, hop, cap):
    """Closed-form EDF water-filling at per-receiver capacity ``cap``.

    Deadlines and release points are both monotone in the sender index,
    so EDF order is sender order and job ``s`` occupies the interval
    ``[start[s], finish[s])`` of the concatenated receiver timeline
    (receiver ``p`` owns ``[p*cap, (p+1)*cap)``), with
    ``finish[s] = max(finish[s-1], release[s]*cap) + loads[s]``.
    Returns ``(start, finish, cumulative_loads)``.
    """
    n = loads.size
    release = np.maximum(np.arange(n) - hop, 0)
    total = np.cumsum(loads)
    # Work of all jobs preceding each sender; sliced (not total - loads)
    # so the values are bit-exact prefixes even for fractional loads.
    before = np.concatenate(([0.0], total[:-1]))
    finish = total + np.maximum.accumulate(release * cap - before)
    return finish - loads, finish, total


def _edf_overrun(finish, hop, cap):
    """Per-job capacity overrun past the deadline receiver (<= 0 = ok)."""
    n = finish.size
    deadline = np.minimum(np.arange(n) + hop, n - 1)
    return finish - (deadline + 1.0) * cap


def _validate_cap(loads, hop, cap):
    """Certify a caller-supplied cap equals the Hall-bound makespan.

    The makespan is the least per-receiver capacity the EDF transport
    succeeds at, so ``cap`` is correct iff the schedule meets every
    deadline at ``cap`` but misses one at ``cap - 1`` — two vectorized
    schedule evaluations, cheaper than re-deriving the window bounds.
    Raises :class:`~repro.errors.ConfigError` on any mismatch; on
    success returns ``(cap, schedule)`` with the already-proven-feasible
    ``_edf_schedule(loads, hop, cap)`` so the caller need not
    re-evaluate it.
    """
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    try:
        cap = float(cap)
    except (TypeError, ValueError):
        raise ConfigError(f"cap must be a number, got {type(cap).__name__}")
    rounded = round(cap)
    if not np.isfinite(cap) or abs(cap - rounded) > 1e-9 or rounded < 0:
        raise ConfigError(
            f"cap {cap} cannot equal share_makespan(loads, hop): the "
            f"bound is a non-negative integer"
        )
    cap = float(rounded)
    schedule = _edf_schedule(loads, hop, cap)
    if (_edf_overrun(schedule[1], hop, cap) > 1e-9).any():
        raise ConfigError(
            f"cap {cap} is below share_makespan(loads, hop) for these "
            f"loads (the EDF transport misses a deadline); pass cap=None "
            f"to recompute the bound"
        )
    if rounded > 0:
        _, finish, _ = _edf_schedule(loads, hop, cap - 1.0)
        if not (_edf_overrun(finish, hop, cap - 1.0) > 1e-9).any():
            raise ConfigError(
                f"cap {cap} exceeds share_makespan(loads, hop) for these "
                f"loads (the transport already succeeds at {cap - 1:g}); "
                f"pass cap=None to recompute the bound"
            )
    return cap, schedule


def _share_effective_loads_reference(loads, hop, *, cap=None):
    """The pre-vectorization heap-based EDF transport (test oracle).

    Kept verbatim so the property suite can assert the vectorized
    :func:`share_effective_loads` is elementwise identical to the
    schedule the original receiver-by-receiver heap produced. Unlike the
    public function it trusts ``cap`` — the tests also use it to probe
    infeasible caps.
    """
    import heapq

    loads = np.asarray(loads, dtype=np.float64)
    n = loads.size
    cap = float(share_makespan(loads, hop) if cap is None else cap)
    effective = np.zeros(n)
    pending = []  # heap of [deadline, sender, remaining]
    for receiver in range(n):
        # Jobs become available once the receiver enters their window.
        sender = receiver + hop
        if sender < n and loads[sender] > 0:
            heapq.heappush(
                pending, [min(sender + hop, n - 1), sender, loads[sender]]
            )
        if receiver == 0:
            for early in range(0, min(hop, n)):
                if loads[early] > 0:
                    heapq.heappush(
                        pending,
                        [min(early + hop, n - 1), early, loads[early]],
                    )
        capacity = cap
        while capacity > 1e-12 and pending:
            deadline, _sender, remaining = pending[0]
            if deadline < receiver:
                break  # cannot happen at a feasible cap
            take = min(capacity, remaining)
            effective[receiver] += take
            capacity -= take
            pending[0][2] -= take
            if pending[0][2] <= 1e-12:
                heapq.heappop(pending)
        if pending and pending[0][0] <= receiver and pending[0][2] > 1e-9:
            raise AssertionError(
                f"EDF transport failed at receiver {receiver}: "
                f"{pending[0][2]} work past its deadline (cap={cap})"
            )
    if pending:
        residue = sum(item[2] for item in pending)
        if residue > 1e-6:
            raise AssertionError(
                f"EDF transport left {residue} unplaced work (cap={cap})"
            )
    return effective


def _ceil_div(numerator, denominator):
    """Elementwise ceiling division for non-negative integer arrays."""
    return -(-numerator // denominator)
