"""Backend dispatch for the hot cuckoo kernels (DESIGN.md §12).

Every hot kernel in the repository — the fused pair probe, the grouped-rank
helper, the bulk-placement planner, the rank-deduped delete plan and the
wave-eviction kick loop — is a *pure function over columns* collected into a
:class:`KernelBackend`.  Callers never import a kernel module directly; they
ask :func:`active_backend` and call through it, so `SlotMatrix`, the five CCF
variants, the FilterStore shards and the serve workers all share one seam,
behind which the three backends (numpy reference, pure-Python oracle,
numba JIT) slot in without touching any call site.  The one direct import
is the wave kick's shared pure-Python tail (``_sequential.kick_one``), which
every backend runs unchanged and ``SlotMatrix.place`` — every cuckoo
structure's scalar placement — calls without dispatch.

Selection, in precedence order:

1. an explicit :func:`set_backend` call (process-local; the serve pool
   forwards its spec to workers so the choice survives fork *and* spawn);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default, ``"numpy"``.

A requested backend that is unknown or whose factory raises
:class:`BackendUnavailable` (e.g. ``numba`` without numba installed) falls
back to numpy with a warning — an accelerator going missing must degrade to
the reference path, never crash the store.  ``set_backend(..., strict=True)``
turns that fallback into an error for callers that need the real thing
(benchmarks, the CI numba leg).

Backends are *contractually bit-identical*: every backend must produce the
same placements, stash contents and query answers as the numpy reference on
identical inputs (property-tested in ``tests/test_kernel_backends.py``).
Speed may differ; behaviour may not.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs

#: Environment variable naming the kernel backend (e.g. ``numba``).
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The always-available reference backend every fallback lands on.
DEFAULT_BACKEND = "numpy"


class BackendUnavailable(RuntimeError):
    """A backend factory's dependencies are missing or broken."""


@dataclass(frozen=True)
class KernelBackend:
    """One backend's kernel suite: pure functions over column arrays.

    Fields mirror the five extracted kernels; see ``reference.py`` for the
    canonical signatures and semantics.  ``info`` carries provenance for
    stats/benchmark records (e.g. the numba version that compiled the
    fast path).
    """

    name: str
    pair_eq: Callable[..., np.ndarray]
    grouped_ranks: Callable[..., tuple]
    plan_bulk_placement: Callable[..., tuple]
    delete_plan: Callable[..., tuple]
    wave_kick: Callable[..., tuple]
    info: Mapping[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBackend(name={self.name!r})"


#: Every backend, by name: the module whose ``make_backend()`` returns its
#: kernel suite or raises :class:`BackendUnavailable`.  Modules are imported
#: on first resolve, so optional dependencies load only when requested.
_BACKENDS: dict[str, str] = {
    "numpy": "repro.kernels.reference",
    "python": "repro.kernels._sequential",
    "numba": "repro.kernels.numba_backend",
}

#: Instantiated backends, by name (a factory runs at most once per process).
_INSTANCES: dict[str, KernelBackend] = {}

#: Explicit process-local request (highest precedence), or None.
_REQUESTED: str | None = None

#: The resolved backend, cached until the selection inputs change.
_ACTIVE: KernelBackend | None = None


def available_backends() -> dict[str, bool]:
    """Map each backend to whether its factory currently works."""
    out: dict[str, bool] = {}
    for name in _BACKENDS:
        try:
            _instantiate(name)
        except BackendUnavailable:
            out[name] = False
        else:
            out[name] = True
    return out


#: The five kernel fields every backend populates, in declaration order.
_KERNEL_FIELDS = (
    "pair_eq",
    "grouped_ranks",
    "plan_bulk_placement",
    "delete_plan",
    "wave_kick",
)

_KERNEL_CALLS = obs.counter(
    "repro_kernel_calls_total",
    "Kernel invocations, by backend and kernel (one per batch call).",
    ("backend", "kernel"),
)
_KERNEL_SECONDS = obs.counter(
    "repro_kernel_seconds_total",
    "Wall time spent inside kernels, by backend and kernel.",
    ("backend", "kernel"),
)


def _timed_kernel(fn: Callable, calls, seconds) -> Callable:
    # The two children are written *only* by this wrapper (one closure per
    # (backend, kernel) pair), so a single shared lock covers both updates —
    # one acquisition and two direct value writes instead of two locked
    # ``inc()`` calls.  Kernels run ~20x per query batch, so the wrapper is
    # itself a hot path the tracing-overhead gate bounds.
    lock = calls._lock
    state = obs.state

    def run(*args, **kwargs):
        if not state.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            with lock:
                calls.value += 1
                seconds.value += elapsed

    run.__name__ = getattr(fn, "__name__", "kernel")
    run.__wrapped__ = fn
    return run


def _instrument(backend: KernelBackend) -> KernelBackend:
    """Wrap a backend's kernels with call-count + wall-time instruments.

    One counter bump and one timestamp pair per *kernel call* — the
    batch-granularity cost point; the kill-switch check is the only work
    left on the path when metrics are off.  ``name``/``info`` and the
    frozen-dataclass contract are preserved by ``dataclasses.replace``.
    """
    wrapped = {
        kernel: _timed_kernel(
            getattr(backend, kernel),
            _KERNEL_CALLS.labels(backend=backend.name, kernel=kernel),
            _KERNEL_SECONDS.labels(backend=backend.name, kernel=kernel),
        )
        for kernel in _KERNEL_FIELDS
    }
    return replace(backend, **wrapped)


def _instantiate(name: str) -> KernelBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        module = _BACKENDS.get(name)
        if module is None:
            raise BackendUnavailable(
                f"unknown kernel backend {name!r}; known: {sorted(_BACKENDS)}"
            )
        # The factory may raise BackendUnavailable.
        backend = _instrument(importlib.import_module(module).make_backend())
        _INSTANCES[name] = backend
    return backend


def backend_spec() -> str | None:
    """The *requested* backend spec (explicit request or env), or None.

    This is what must be forwarded across process boundaries: spawned serve
    workers re-import this module with fresh state, so the pool ships
    ``backend_spec()`` in the worker args and the worker replays it through
    :func:`set_backend` before attaching its store.
    """
    if _REQUESTED is not None:
        return _REQUESTED
    return os.environ.get(ENV_VAR) or None


def set_backend(spec: str | None, strict: bool = True) -> KernelBackend:
    """Select the kernel backend for this process and return it.

    ``spec=None`` clears any explicit request (selection falls back to the
    environment variable / default).  With ``strict=False`` an unavailable
    or unknown backend degrades to numpy with a warning instead of raising —
    the behaviour env-var selection always gets.
    """
    global _REQUESTED, _ACTIVE
    _REQUESTED = spec
    _ACTIVE = None
    if spec is not None and strict:
        _ACTIVE = _instantiate(spec)
        return _ACTIVE
    return active_backend()


def active_backend() -> KernelBackend:
    """The process's resolved kernel backend (cached after first call)."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is not None:
        return backend
    spec = backend_spec()
    if spec is None or spec == DEFAULT_BACKEND:
        backend = _instantiate(DEFAULT_BACKEND)
    else:
        try:
            backend = _instantiate(spec)
        except BackendUnavailable as exc:
            warnings.warn(
                f"kernel backend {spec!r} unavailable ({exc}); "
                f"falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            backend = _instantiate(DEFAULT_BACKEND)
    _ACTIVE = backend
    return backend


def _reset_for_tests() -> None:
    """Clear resolution state (not the registry); test isolation hook."""
    global _REQUESTED, _ACTIVE
    _REQUESTED = None
    _ACTIVE = None
