"""Per-layer self-time attribution from outside the program.

The traced run patches the calls each module makes into the next with a
timing wrapper.  A layer's *self* time is the time spent inside its calls
minus the time of the wrapped calls they make in turn, so the rows of one
thread never overlap and, with an ``unattributed_s`` row for what no layer
covers, sum to that thread's wall time.

Nothing under ``src/`` changes: the wrappers are installed on the classes
and module attributes at run time and removed afterwards.  Work done in
pool worker processes is not patched; it is read from the counters the
program already exports (`ServeRuntime.metrics()`) and from the worker
span rings (`WorkerPool.trace()`).
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable


def _rows_of_first(args, kwargs, result) -> int:
    """Rows in a batch call whose first positional argument is the batch."""
    return len(args[1]) if len(args) > 1 else 0


def _segment_bytes(args, kwargs, result) -> int:
    """Bytes of the segment file a ``write_segment`` call produced."""
    try:
        return result.stat().st_size
    except (AttributeError, OSError):
        return 0


def _truthy(args, kwargs, result) -> int:
    return 1 if result else 0


# (module, owner class or None for a module function, attribute, layer,
#  counter of work units or None).  A layer name is the module that does the
#  work; each row is a call from one layer into the next.
PATCHES: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    # hashing: key fingerprints, bucket indexes, shard routing, attr vectors
    ("repro.ccf.chain", "PairGeometry", "fingerprints_of_many", "hashing", None),
    ("repro.ccf.chain", "PairGeometry", "home_indices_of_many", "hashing", None),
    ("repro.ccf.chain", "PairGeometry", "alt_indices_many", "hashing", None),
    ("repro.ccf.attributes", "AttributeFingerprinter", "vectors_many", "hashing", None),
    ("repro.store.store", None, "hash64_many", "hashing", None),
    # store: routing and scatter in FilterStore.*_many
    ("repro.store.store", "FilterStore", "insert_many", "store.route", _rows_of_first),
    ("repro.store.store", "FilterStore", "delete_many", "store.route", _rows_of_first),
    ("repro.store.store", "FilterStore", "query_many", "store.route", _rows_of_first),
    ("repro.store.store", "FilterStore", "_snapshot", "store.snapshot", None),
    ("repro.store.store", "FilterStore", "_checkpoint", "store.checkpoint", None),
    ("repro.store.store", "FilterStore", "open", "store.open", None),
    ("repro.store.store", "FilterStore", "_recover_wal", "store.wal.replay", None),
    ("repro.store.store", "FilterStore", "warm", "serve.runtime.warm", None),
    # store.shard
    ("repro.store.shard", "FilterShard", "insert_hashed_rows", "store.shard.insert", None),
    ("repro.store.shard", "FilterShard", "delete_hashed_rows", "store.shard.delete", None),
    ("repro.store.shard", "FilterShard", "query_hashed_many", "store.shard.query", None),
    ("repro.store.shard", "FilterShard", "_rows_present_in", "store.shard.dedup", None),
    ("repro.store.shard", None, "merge_levels", "store.compaction", None),
    # store.wal
    ("repro.store.wal", "ShardWal", "append", "store.wal.append", None),
    ("repro.store.wal", "ShardWal", "sync", "store.wal.fsync", None),
    # store.maintenance
    ("repro.store.maintenance", "MaintenanceScheduler", "step", "store.maintenance", None),
    # store.segments / ccf.mmapio
    ("repro.store.store", None, "write_segment", "store.segments.write", _segment_bytes),
    ("repro.store.segments", None, "open_segment", "store.segments.open", None),
    # ccf: the filter structures (store levels and the join bundles)
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "insert_many", "ccf.insert", _rows_of_first),
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "_insert_hashed_rows", "ccf.insert", _rows_of_first),
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "query_many", "ccf.query", None),
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "_single_pair_query_many", "ccf.query", None),
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "compile", "ccf.compile", None),
    ("repro.ccf.plain", "PlainCCF", "_query_hashed_many", "ccf.query", None),
    ("repro.ccf.chained", "ChainedCCF", "_query_hashed_many", "ccf.query", None),
    ("repro.ccf.bloom_ccf", "BloomCCF", "_query_hashed_many", "ccf.query", None),
    ("repro.ccf.mixed", "MixedCCF", "_query_hashed_many", "ccf.query", None),
    ("repro.ccf.plain", "PlainCCF", "_delete_hashed", "ccf.delete", None),
    ("repro.ccf.plain", "PlainCCF", "_row_present", "ccf.row_present", _truthy),
    ("repro.join.reduction", None, "make_ccf", "ccf.make", None),
    ("repro.cuckoo.filter", "CuckooFilter", "insert_many", "cuckoo.insert", _rows_of_first),
    ("repro.cuckoo.filter", "CuckooFilter", "contains_many", "cuckoo.query", None),
    # serve
    ("repro.serve.runtime", "ServeRuntime", "publish", "serve.runtime", None),
    ("repro.serve.pool", "WorkerPool", "refresh", "serve.runtime.refresh", None),
    ("repro.serve.pool", "WorkerPool", "query_many", "serve.pool", _rows_of_first),
    ("repro.serve.frontend", "CoalescingFrontEnd", "_flush", "serve.frontend", None),
    ("repro.serve.frontend", "CoalescingFrontEnd", "_dispatch", "serve.frontend", None),
    ("repro.serve.frontend", "CoalescingFrontEnd", "_resolve", "serve.frontend", None),
    ("repro.serve.frontend", "CoalescingFrontEnd", "_record_requests", "serve.frontend", None),
    ("repro.serve.locks", "RWLock", "acquire_read", "serve.locks.read", None),
    ("repro.serve.locks", "RWLock", "acquire_write", "serve.locks.write", None),
)

#: The five dispatched kernels; wrapped on the active backend instance.
KERNELS = ("pair_eq", "wave_kick", "plan_bulk_placement", "delete_plan", "grouped_ranks")


def registry_values() -> dict[tuple, float]:
    """This process's counters and histogram count/sum, flattened to
    ``{(family, label items): value}`` so two reads subtract."""
    from repro import obs

    out: dict[tuple, float] = {}
    for name, family in obs.snapshot().items():
        for sample in family["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if family["type"] == "counter":
                out[(name, labels)] = float(sample["value"])
            elif family["type"] == "histogram":
                out[(name + ":sum", labels)] = float(sample["sum"])
                out[(name + ":count", labels)] = float(sample["count"])
    return out


class _Acc:
    """One thread's accumulators, keyed by (phase, layer)."""

    __slots__ = ("self_s", "incl_s", "calls", "units", "max_s", "stack")

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.units: dict = defaultdict(int)
        self.max_s: dict = defaultdict(float)
        # Open frames: [layer, child seconds]
        self.stack: list[list] = []


class Ledger:
    """Self-time accumulation per (phase, thread, layer) for patched calls."""

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._accs: dict[int, _Acc] = {}
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        #: Traced wall seconds per phase (the conservation denominator).
        self.wall: dict[str, float] = defaultdict(float)
        self.windows: dict[str, int] = defaultdict(int)
        #: Growth of this process's program counters over traced windows.
        self.registry: dict[tuple, float] = defaultdict(float)

    # -- accumulation -----------------------------------------------------

    def _acc(self) -> _Acc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _Acc()
            self._local.acc = acc
            with self._lock:
                self._accs[threading.get_ident()] = acc
        return acc

    def timed(self, fn: Callable, layer: str, units: Callable | None = None) -> Callable:
        """``fn`` wrapped so its time is billed to ``layer`` while active."""
        ledger = self

        def wrapper(*args: Any, **kwargs: Any):
            if not ledger.active:
                return fn(*args, **kwargs)
            acc = ledger._acc()
            stack = acc.stack
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (ledger.phase, layer)
                acc.self_s[key] += elapsed - frame[1]
                if not nested:
                    acc.incl_s[key] += elapsed
                    acc.calls[key] += 1
                    if elapsed > acc.max_s[key]:
                        acc.max_s[key] = elapsed
                    if units is not None:
                        acc.units[key] += units(args, kwargs, result)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, layer: str):
        """Bill a block of benchmark code to ``layer`` (e.g. the join probe loop)."""
        if not self.active:
            yield
            return
        acc = self._acc()
        frame = [layer, 0.0]
        acc.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            acc.stack.pop()
            if acc.stack:
                acc.stack[-1][1] += elapsed
            key = (self.phase, layer)
            acc.self_s[key] += elapsed - frame[1]
            acc.incl_s[key] += elapsed
            acc.calls[key] += 1

    @contextmanager
    def window(self, phase: str, traced: bool):
        """Run one timed window of ``phase``, traced or not.

        Traced windows add their wall time to the phase's conservation
        denominator; untraced ones run with every wrapper on its fast path.
        """
        before = registry_values() if traced else None
        self.phase = phase
        self.active = traced
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.active = False
            if traced:
                self.wall[phase] += elapsed
                self.windows[phase] += 1
                for key, value in registry_values().items():
                    grown = value - before.get(key, 0.0)
                    if grown:
                        self.registry[key] += grown

    def counted(self, name: str, **labels: str) -> float:
        """Growth of a program counter (or histogram ``name:sum``/``name:count``)
        over the traced windows of this process, summed over matching labels."""
        wanted = set(labels.items())
        return sum(
            value
            for (family, label_items), value in self.registry.items()
            if family == name and wanted <= set(label_items)
        )

    # -- installation -----------------------------------------------------

    def install(self) -> "Ledger":
        for module_name, owner_name, attr, layer, units in PATCHES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attr, layer, units)
        self._patch_kernels()
        return self

    def _patch(self, owner: Any, attr: str, layer: str, units: Callable | None) -> None:
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.timed(raw.__func__, layer, units))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.timed(raw.__func__, layer, units))
        else:
            replacement = self.timed(raw, layer, units)
        setattr(owner, attr, replacement)
        if own:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def _patch_kernels(self) -> None:
        from repro.kernels import dispatch

        original = dispatch.active_backend()
        wrapped = dataclasses.replace(
            original,
            **{
                name: self.timed(getattr(original, name), f"kernels.{name}")
                for name in KERNELS
            },
        )
        saved = dispatch._ACTIVE
        dispatch._ACTIVE = wrapped
        self._undo.append(lambda: setattr(dispatch, "_ACTIVE", saved))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.active = False

    # -- read-out ---------------------------------------------------------

    def totals(self, phase: str | None = None, main_only: bool = False) -> dict:
        """{layer: {self_s, incl_s, calls, units, max_s}} over the chosen scope."""
        out: dict[str, dict] = {}
        with self._lock:
            accs = list(self._accs.items())
        for ident, acc in accs:
            if main_only and ident != self.main_thread:
                continue
            for (acc_phase, layer), seconds in list(acc.self_s.items()):
                if phase is not None and acc_phase != phase:
                    continue
                row = out.setdefault(
                    layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "units": 0, "max_s": 0.0}
                )
                key = (acc_phase, layer)
                row["self_s"] += seconds
                row["incl_s"] += acc.incl_s.get(key, 0.0)
                row["calls"] += acc.calls.get(key, 0)
                row["units"] += acc.units.get(key, 0)
                row["max_s"] = max(row["max_s"], acc.max_s.get(key, 0.0))
        return out

    def phase_tables(self) -> dict[str, dict]:
        """Per phase: the driving thread's self-time rows plus ``unattributed_s``
        (summing to the traced wall time), and the other threads' rows."""
        tables = {}
        for phase, wall in self.wall.items():
            main = self.totals(phase, main_only=True)
            rows = {layer: round(row["self_s"], 6) for layer, row in sorted(main.items())}
            attributed = sum(rows.values())
            rows["unattributed_s"] = round(wall - attributed, 6)
            everything = self.totals(phase)
            off_thread = {
                layer: round(row["self_s"] - main.get(layer, {}).get("self_s", 0.0), 6)
                for layer, row in sorted(everything.items())
                if row["self_s"] - main.get(layer, {}).get("self_s", 0.0) > 0
            }
            tables[phase] = {
                "wall_s": round(wall, 6),
                "windows": self.windows[phase],
                "rows_s": rows,
                "conservation": round((attributed + max(rows["unattributed_s"], 0.0)) / wall, 4)
                if wall
                else None,
                "off_thread_s": off_thread,
            }
        return tables
