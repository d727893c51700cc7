"""Service configuration and the per-tenant resource-budget mapping."""

from __future__ import annotations

import resource
from dataclasses import dataclass
from typing import Optional

#: Bytes of per-tenant budget per sampled block.  The bounded-memory
#: test in ``tests/test_mrc.py`` pins the estimator's
#: :meth:`~repro.mrc.ShardsEstimator.state_entries` at most
#: ``3 × max_blocks`` (per live block: a dict slot, a position-list slot
#: and a heap tuple), about 200-240 bytes of CPython objects per block
#: under ``tracemalloc``, so 8KB is generous.  It is not re-derived from
#: that: it sets every session's sample size (the default 2 MiB budget
#: is 256 blocks), so changing it changes every ``mrc`` and ``verdict``
#: answer, and it belongs with calibrating the verdict.
BYTES_PER_SAMPLED_BLOCK = 8192

#: Sample-size clamp: below 64 blocks a SHARDS curve is noise (the
#: sampling module's error model documents the sharp degradation under
#: ~1K blocks; 64 is the floor where the curve is still directionally
#: usable for a verdict), and above 65536 a "sample" is just a stack.
MIN_MAX_BLOCKS = 64
MAX_MAX_BLOCKS = 65536

#: Largest direct-mapped L1 an ``open`` frame may ask for, in sets.  A
#: session carries two int64 arrays of ``num_sets`` (each set's resident
#: block and last victim), so this is 1 MiB of per-set state, the same
#: cap as the SHARDS sample; 4096 KB of 64-byte lines fills it exactly.
MAX_SESSION_SETS = 65536


def max_blocks_for_budget(budget_bytes: int) -> int:
    """Translate a per-tenant byte budget into a SHARDS sample bound.

    The service's eviction policy is *not* "kill the tenant when it
    grows" — the pipeline is built so it cannot grow: the budget is
    applied up front by sizing the fixed-size SHARDS bound, the only
    state in the pipeline whose footprint depends on the stream (the
    MCT and resident-tag arrays are fixed by cache geometry at open).
    """
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    blocks = budget_bytes // BYTES_PER_SAMPLED_BLOCK
    return max(MIN_MAX_BLOCKS, min(MAX_MAX_BLOCKS, blocks))


def raise_fd_limit(wanted: int) -> int:
    """Raise ``RLIMIT_NOFILE``'s soft limit toward ``wanted``.

    One session is one socket, so serving N sessions needs roughly
    N + a handful of descriptors (double that when the load generator
    shares the process, as the bench cell does); default soft limits
    (often 1024) sit below the service's default admission cap.  Best
    effort: the hard limit bounds what an unprivileged process may
    request, and the achieved soft limit is returned.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    target = min(max(soft, wanted), hard)
    if target > soft:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
        except (ValueError, OSError):
            return soft
    return target


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.server.ConflictServer` needs.

    Exactly one of ``socket_path`` (unix-domain) or ``host``/``port``
    (TCP) selects the listener.  The remaining knobs are the
    backpressure/eviction policy:

    ``max_sessions``
        Admission gate: connections beyond this are refused with an
        error frame before any session state is allocated.
    ``default_budget_bytes``
        Per-tenant state budget applied when an ``open`` frame does not
        carry its own ``budget_bytes``; see :func:`max_blocks_for_budget`.
    ``max_batch_refs``
        Largest address batch a single frame may carry.  Combined with
        the one-ack-per-batch flow control this bounds the bytes a
        client can have in flight.
    ``idle_timeout_s``
        Sessions with no frame activity for this long are reaped
        (closed server-side with reason ``"idle"``).  ``0`` disables
        the reaper.
    """

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 1024
    default_budget_bytes: int = 1 << 21
    max_batch_refs: int = 65536
    idle_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.max_batch_refs < 1:
            raise ValueError(
                f"max_batch_refs must be >= 1, got {self.max_batch_refs}"
            )
        if self.idle_timeout_s < 0:
            raise ValueError(
                f"idle_timeout_s must be >= 0, got {self.idle_timeout_s}"
            )
        # Touches the validation in max_blocks_for_budget too.
        max_blocks_for_budget(self.default_budget_bytes)
