"""Backend-dispatched hot kernels for every cuckoo structure (DESIGN.md §12).

The package splits into:

* :mod:`repro.kernels.dispatch` — the backend table, selection
  (``REPRO_KERNEL_BACKEND`` / :func:`set_backend`) and fallback semantics;
* :mod:`repro.kernels.reference` — the vectorised numpy kernels (the
  behavioural contract every backend must match bit for bit);
* :mod:`repro.kernels._sequential` — numba-compatible scalar twins, run
  un-jitted as the ``"python"`` oracle backend;
* :mod:`repro.kernels.numba_backend` — the optional JIT fast path
  (guarded import; falls back to numpy when numba is absent).

Call sites never pick an implementation: they fetch
``active_backend()`` and call through its :class:`KernelBackend` fields
(the backend-independent kick tail, ``_sequential.kick_one``, is the one
function ``SlotMatrix.place``, every scalar placement, calls directly).
"""

from repro.kernels.dispatch import (
    DEFAULT_BACKEND,
    ENV_VAR,
    BackendUnavailable,
    KernelBackend,
    active_backend,
    available_backends,
    backend_spec,
    set_backend,
)
from repro.kernels.reference import grouped_ranks

__all__ = [
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "active_backend",
    "available_backends",
    "backend_spec",
    "grouped_ranks",
    "set_backend",
]
