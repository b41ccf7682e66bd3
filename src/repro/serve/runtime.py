"""ServeRuntime: single writer + shared-mmap reader pool + epoch publishing.

The full serving topology of DESIGN.md §11::

                     insert_many / delete_many
    clients ──────────────────────────────────▶ writer FilterStore
                                                  │ (per-shard RW locks)
                                                  │ publish(): snapshot
                                                  ▼        epoch N+1
                                            snapshots/epoch-000N+1
                                                  │ refresh broadcast
                  query / query_many       ┌──────┴──────┐
    clients ──▶ CoalescingFrontEnd ──▶ WorkerPool: N workers, each with
                (per-tick batches)     the epoch's segments mapped zero-copy

* The **writer** is the one mutable store.  Its per-shard RW locks (also
  installed here) let any in-process readers — e.g. ``fresh=True`` queries
  that need read-your-writes — run against shard j while the writer mutates
  shard i.
* ``publish()`` snapshots the writer into ``root/epoch-%06d`` and
  broadcasts the new epoch to the pool; each worker refreshes by content
  token, keeping unchanged levels mapped and attaching only rolled or
  compacted ones.  Old epoch directories can then be deleted — workers
  holding mappings into them keep serving from the live inodes.
* Reads default to the pool (scales across cores, epoch-consistent);
  ``fresh=True`` reads hit the writer store under its shard read locks.
* While started, the runtime lowers the interpreter's switch interval to
  :data:`SWITCH_INTERVAL_S`, so reader threads wait less on the writer's
  GIL.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.ccf.predicates import Predicate
from repro.serve.frontend import CoalescingFrontEnd
from repro.serve.locks import shard_locks
from repro.serve.pool import WorkerPool
from repro.store.metrics import store_metrics
from repro.store.store import FilterStore

#: Epoch directories are named so a directory listing sorts by recency.
EPOCH_DIR_FORMAT = "epoch-{epoch:06d}"

#: Interpreter switch interval while a runtime is started; ``start()``
#: never raises a smaller one.  At the default 5 ms, a Python writer
#: thread's GIL holds stall every thread hop of a pooled read; DESIGN.md
#: §11 has the measured trade behind 1 ms.
SWITCH_INTERVAL_S = 0.001


class ServeRuntime:
    """A concurrent serving runtime over one writable FilterStore."""

    def __init__(
        self,
        store: FilterStore,
        root: str | Path,
        num_workers: int = 2,
        mode: str = "process",
        predicates: Mapping[str, Predicate] | None = None,
        tick_seconds: float = 0.001,
        max_batch: int = 8192,
        keep_epochs: int = 2,
        warm: bool = True,
        start_method: str | None = None,
    ) -> None:
        if keep_epochs < 1:
            raise ValueError("keep_epochs must be at least 1")
        self.store = store
        self.root = Path(root)
        self.num_workers = num_workers
        self.mode = mode
        self.predicates = dict(predicates or {})
        self.tick_seconds = tick_seconds
        self.max_batch = max_batch
        self.keep_epochs = keep_epochs
        self.warm = warm
        self.start_method = start_method
        self.epoch = 0
        self.pool: WorkerPool | None = None
        #: The switch interval ``start()`` replaced, restored by ``close()``.
        self._saved_switch_interval: float | None = None
        self.telemetry = None  # TelemetryServer once serve_telemetry() runs
        #: Optional budgeted maintenance, run after each publish
        #: (`install_maintenance`); requires a durable (WAL-attached) writer.
        self.maintenance = None
        self._maintenance_budget = 0
        self._locks = shard_locks(store.config.num_shards)
        store.install_shard_locks(self._locks)
        self._compiled = {
            name: store.compile(pred) for name, pred in self.predicates.items()
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServeRuntime":
        """Publish epoch 1, launch the reader pool against it, and lower
        the switch interval to :data:`SWITCH_INTERVAL_S`."""
        if self.pool is not None:
            raise RuntimeError("runtime already started")
        path = self.publish()
        self.pool = WorkerPool(
            path,
            num_workers=self.num_workers,
            mode=self.mode,
            predicates=self.predicates,
            start_method=self.start_method,
        ).start()
        self._saved_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._saved_switch_interval, SWITCH_INTERVAL_S))
        return self

    def close(self) -> dict | None:
        """Stop the telemetry server and the pool (writer store stays
        usable) and restore the switch interval ``start()`` replaced;
        returns the final pool stats."""
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None
        if self.pool is None:
            return None
        sys.setswitchinterval(self._saved_switch_interval)
        final = self.pool.close()
        self.pool = None
        self.store.install_shard_locks(None)
        return final

    def __enter__(self) -> "ServeRuntime":
        return self.start() if self.pool is None else self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- write path (single writer) -------------------------------------

    def insert_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Apply a write batch to the writer store (per-shard write locks)."""
        return self.store.insert_many(keys, attr_columns)

    def delete_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Apply a delete batch to the writer store (per-shard write locks)."""
        return self.store.delete_many(keys, attr_columns)

    def compact(self) -> None:
        """Compact the writer store shard-by-shard under its write locks."""
        self.store.compact()

    def install_maintenance(self, scheduler, steps_per_publish: int = 4) -> None:
        """Run budgeted maintenance steps piggybacked on every publish.

        ``scheduler`` is a `repro.store.maintenance.MaintenanceScheduler`
        over this runtime's (durable) writer.  Each ``publish()`` then
        retires at most ``steps_per_publish`` units of debt — compaction
        slices under single-shard write locks, WAL rolls when a log passes
        its threshold — so durability upkeep rides the publish cadence
        instead of needing a second timer.
        """
        if scheduler.store is not self.store:
            raise ValueError("scheduler must wrap this runtime's writer store")
        self.maintenance = scheduler
        self._maintenance_budget = steps_per_publish

    def publish(self) -> Path:
        """Snapshot the writer as the next epoch and refresh the pool.

        Workers re-attach only changed levels (content-token refresh); the
        page cache warmed here is shared by every worker.  Epoch
        directories older than ``keep_epochs`` are deleted afterwards —
        safe, because live mappings keep their inodes readable.

        Epoch snapshots are plain (no WAL section) even when the writer is
        durable: workers are read-only replicas and must never replay or
        adopt the writer's log.  A WAL roll between publishes is invisible
        to the pool — checkpoints re-seal levels under unchanged content
        tokens, so the next refresh still reuses every mapped level.  With
        a scheduler installed (`install_maintenance`), a budgeted
        maintenance pass runs after the broadcast.
        """
        self.epoch += 1
        path = self.root / EPOCH_DIR_FORMAT.format(epoch=self.epoch)
        self.store.snapshot(path)
        if self.warm:
            FilterStore.open(path).warm()
        if self.pool is not None:
            self.pool.refresh(path, self.epoch)
        self._prune_epochs()
        if self.maintenance is not None:
            self.maintenance.run(max_steps=self._maintenance_budget)
        return path

    def _prune_epochs(self) -> None:
        floor = self.epoch - self.keep_epochs
        for old in range(1, max(floor + 1, 1)):
            stale = self.root / EPOCH_DIR_FORMAT.format(epoch=old)
            if stale.exists():
                shutil.rmtree(stale, ignore_errors=True)

    # -- read path ------------------------------------------------------

    def query_many(
        self,
        keys: Sequence[object] | np.ndarray,
        predicate: str | None = None,
        fresh: bool = False,
    ) -> np.ndarray:
        """Batch membership: pooled (epoch-consistent) or writer-fresh.

        ``predicate`` is a name registered at construction.  Default reads
        go through the worker pool and see the last *published* epoch;
        ``fresh=True`` reads the writer store under shard read locks and
        see every applied write (read-your-writes, at the cost of sharing
        the writer's core).
        """
        if predicate is not None and predicate not in self.predicates:
            raise KeyError(
                f"unknown predicate {predicate!r}; registered: "
                f"{sorted(self.predicates)}"
            )
        if fresh or self.pool is None:
            return self.store.query_many(keys, self._compiled.get(predicate))
        return self.pool.query_many(keys, predicate)

    def frontend(
        self,
        tick_seconds: float | None = None,
        max_batch: int | None = None,
    ) -> CoalescingFrontEnd:
        """A coalescing asyncio front end over this runtime's read path.

        The runtime itself is the backend (its ``query_many`` resolves
        predicate names whether reads go to the pool or the writer), so
        the front end keeps working across start/close transitions.
        """
        return CoalescingFrontEnd(
            self,
            tick_seconds=self.tick_seconds if tick_seconds is None else tick_seconds,
            max_batch=self.max_batch if max_batch is None else max_batch,
            predicates=(None, *self.predicates),
        )

    # -- telemetry surface ----------------------------------------------

    def serve_telemetry(self, host: str = "127.0.0.1", port: int = 0):
        """Start the HTTP telemetry server (``/metrics``, ``/metrics.json``,
        ``/health``, ``/trace``) over this runtime; returns it.

        ``port=0`` binds an ephemeral port — read it off the returned
        server's ``.port``.  The server runs on its own thread/event loop
        and is stopped by :meth:`close` (or its own ``close()``).
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.serve.http import TelemetryServer

        self.telemetry = TelemetryServer(self, host=host, port=port).start()
        return self.telemetry

    def ready(self) -> bool:
        """Readiness: an epoch has been published and every worker lives."""
        return self.epoch >= 1 and self.pool is not None and self.pool.alive()

    def trace(self, slow_only: bool = False) -> dict:
        """One merged Chrome-trace export across frontend, pool and store.

        Process workers' span rings are drained, re-based onto this
        process's clock and adopted first, so the returned tree is whole
        regardless of pool mode.  ``slow_only=True`` restricts the export
        to the slow-op ring's trace ids — the ``/trace`` endpoint's view.
        """
        if self.pool is not None and self.pool.alive():
            self.pool.trace()
        trace_ids = obs.SLOW_OPS.trace_ids() if slow_only else None
        return obs.to_chrome_trace(trace_ids)

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """The serving stats endpoint: writer ops + pool counters + epoch."""
        writer = self.store.stats()
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "num_workers": self.num_workers,
            # Hoisted from the writer record: operators checking "can this
            # deployment lose acked writes?" shouldn't have to dig.
            "durability": writer["durability"],
            "slow_ops": obs.SLOW_OPS.summary(),
            "writer": writer,
            "pool": self.pool.stats() if self.pool is not None else None,
        }

    def metrics(self, fmt: str = "snapshot") -> dict | str:
        """The scrapeable telemetry endpoint: writer + pool, one registry.

        Merges the writer process's registry snapshot (with the store's
        structural gauges overlaid) with every pool worker's contribution —
        process workers ship their whole registry, thread workers just
        their served-ops delta (their counters already live in this
        process's registry).  ``fmt`` selects the output form:
        ``"snapshot"`` (the dict), ``"prometheus"`` (text exposition) or
        ``"json"``.
        """
        snapshots = [store_metrics(self.store)]
        if self.pool is not None:
            snapshots.append(self.pool.metrics())
        merged = obs.merge_snapshots(*snapshots)
        if fmt == "snapshot":
            return merged
        if fmt == "prometheus":
            return obs.to_prometheus(merged)
        if fmt == "json":
            return obs.to_json(merged)
        raise ValueError(
            f"fmt must be 'snapshot', 'prometheus' or 'json', got {fmt!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.pool is not None
        return (
            f"ServeRuntime(epoch={self.epoch}, workers={self.num_workers}, "
            f"mode={self.mode!r}, running={running})"
        )
