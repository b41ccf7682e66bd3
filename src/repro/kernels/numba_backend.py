"""The optional numba backend: JIT-compiled scalar kernels, guarded import.

numba is deliberately *not* a dependency of this package — the factory
raises :class:`~repro.kernels.dispatch.BackendUnavailable` when it cannot be
imported (missing, or broken install), and the dispatch layer falls back to
the numpy reference with a warning.  ``pip install repro[numba]`` opts in.

What gets compiled: exactly the sequential implementations in
``_sequential.py`` — the per-item wave-eviction loop and the scalar pair
probe, the two kernels whose work numpy either cannot express without
per-round full-array passes (wave kick: plan + unique + compaction every
round) or pays gather/reshape overheads on (pair probe).  The
``grouped_ranks`` / placement-planner / delete-plan kernels stay on the
vectorised reference implementations: their cost is one ``lexsort`` +
cumulative passes, already memory-bound optimal, and numba's typed
re-implementation measured no better.  The wave kick's final <=4 items run
the shared pure-Python tail (``kick_tail``), as on every backend.  Because
the jitted functions *are* the python backend's functions, the
cross-backend parity property suite exercises this backend's exact
algorithm even where numba itself is absent.

Compilation cost: ``cache=True`` persists compiled machine code next to the
module, so the first call per (dtype) signature pays the JIT once per
environment, not once per process; the microbenchmark records cold
(compiling) and warm timings separately so compile time never pollutes
steady-state numbers.  ``nogil=True`` releases the GIL inside the kernels —
the serve pool's thread mode overlaps jitted probes the same way it
overlaps numpy's.
"""

from __future__ import annotations

from repro.kernels import _sequential, reference
from repro.kernels.dispatch import BackendUnavailable, KernelBackend


def make_backend() -> KernelBackend:
    """Build the numba backend, or raise :class:`BackendUnavailable`."""
    try:
        import numba
    except Exception as exc:  # broken installs raise more than ImportError
        raise BackendUnavailable(f"numba is not importable ({exc})") from None
    try:
        jit = numba.njit(cache=True, nogil=True)
        pair_eq_jit = jit(_sequential.pair_eq_impl)
        wave_kick_jit = jit(_sequential.wave_kick_impl)
    except Exception as exc:  # pragma: no cover - depends on numba install
        raise BackendUnavailable(f"numba njit setup failed ({exc})") from None
    pair_eq, wave_kick = _sequential.host_wrappers(pair_eq_jit, wave_kick_jit)
    return KernelBackend(
        name="numba",
        pair_eq=pair_eq,
        grouped_ranks=reference.grouped_ranks,
        plan_bulk_placement=reference.plan_bulk_placement,
        delete_plan=reference.delete_plan,
        wave_kick=wave_kick,
        info={
            "array_module": "numpy",
            "jit": "numba",
            "numba_version": numba.__version__,
        },
    )
