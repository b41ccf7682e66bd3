"""Incremental background maintenance for durable FilterStores.

A durable writer accumulates debt: WALs grow without bound, level stacks
deepen (slowing reads), and mutated levels sit on the heap instead of in
sealed segments.  The :class:`MaintenanceScheduler` retires that debt in
**budgeted steps** — each ``step()`` call performs at most one bounded unit
of work and returns, so the caller (a serving loop, a timer thread, a CLI
``tick``) decides the cadence and no call ever stops the world:

* ``compact`` — merge ONE shard's level stack, chosen where the debt is
  deepest, under that shard's write lock only.  Readers and writers on
  every other shard proceed; this is how "compaction in slices" composes
  with the per-shard RW locks from the serve layer (DESIGN.md §11).
* ``checkpoint`` — seal state and roll every WAL when any shard's log
  passes the durability config's ``roll_bytes``, or when enough rows have
  mutated since the last seal (``seal_rows``).  The checkpoint itself is
  the commit-point protocol of `FilterStore.checkpoint` (all write locks,
  one manifest replace); the scheduler's job is *when*, not *how*.

``run(max_steps)`` loops ``step()`` until the store reports no debt or the
budget runs out — the catch-up mode after a long unmaintained stretch.

Thresholds trade write amplification against recovery time: a smaller
``roll_bytes`` bounds replay work after a crash, a smaller
``compact_levels`` bounds read fan-out.  Both default conservatively; the
crash property suite runs with tiny thresholds so every step kind fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro import obs
from repro.store.store import FilterStore

_STEPS = obs.counter(
    "repro_store_maintenance_steps_total",
    "Maintenance steps executed, by step kind.",
    ("kind",),
)
_STEP_US = obs.histogram(
    "repro_store_maintenance_step_us",
    "Maintenance step duration by step kind, in microseconds.",
    ("kind",),
)


@dataclass(frozen=True)
class MaintenancePolicy:
    """When each maintenance step kind becomes due.

    * ``compact_levels`` — a shard owing this many levels is compaction
      debt (must exceed the store's own ``compact_at`` auto-trigger to
      matter, since the shard self-compacts at that depth).
    * ``seal_rows`` — rows mutated since the last checkpoint past which a
      seal is due even if the WAL is small (bounds replay *work*, not just
      replay *bytes*).  ``None`` disables the row trigger.

    The byte trigger is the store's own ``DurabilityConfig.roll_bytes``.
    """

    compact_levels: int = 4
    seal_rows: int | None = None

    def __post_init__(self) -> None:
        if self.compact_levels < 2:
            raise ValueError("compact_levels must be at least 2")
        if self.seal_rows is not None and self.seal_rows < 1:
            raise ValueError("seal_rows must be positive (or None)")


class MaintenanceScheduler:
    """Budgeted, incremental maintenance over one durable FilterStore."""

    def __init__(
        self, store: FilterStore, policy: MaintenancePolicy | None = None
    ) -> None:
        if not store.durable:
            raise ValueError(
                "maintenance schedules WAL rolls and seals; attach_wal first"
            )
        self.store = store
        self.policy = policy or MaintenancePolicy()
        self.steps_run = 0

    # ------------------------------------------------------------------
    # Debt assessment (cheap: counters only, no locks)
    # ------------------------------------------------------------------

    def _checkpoint_due(self) -> bool:
        roll_at = self.store._durability.roll_bytes
        seal_rows = self.policy.seal_rows
        for shard in self.store.shards:
            wal = shard.wal
            # A frameless log has nothing to seal: its header bytes must not
            # count as debt, or a small roll_bytes would re-trigger forever.
            if wal is None or wal.num_frames == 0:
                continue
            if wal.nbytes >= roll_at:
                return True
            if seal_rows is not None and wal.num_rows >= seal_rows:
                return True
        return False

    def _compaction_shard(self) -> int | None:
        """The shard owing the deepest stack past the threshold, if any."""
        worst, worst_depth = None, self.policy.compact_levels - 1
        for shard in self.store.shards:
            depth = shard.num_levels
            if depth > worst_depth:
                worst, worst_depth = shard.shard_id, depth
        return worst

    def pending(self) -> list[str]:
        """The step kinds currently due, in execution priority order."""
        due = []
        if self._compaction_shard() is not None:
            due.append("compact")
        if self._checkpoint_due():
            due.append("checkpoint")
        return due

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> str | None:
        """Run at most one unit of maintenance; returns what ran, or None.

        Compaction runs before checkpointing on purpose: sealing a deep
        stack would write one segment per level, then the next compact
        would obsolete them all — merging first makes the seal smaller.
        """
        shard_id = self._compaction_shard()
        if shard_id is not None:
            start = perf_counter()
            with obs.span("maintenance.step", kind="compact", shard=shard_id):
                self.store._compact_shard(shard_id)
            _STEP_US.labels(kind="compact").observe((perf_counter() - start) * 1e6)
            _STEPS.labels(kind="compact").inc()
            self.steps_run += 1
            return "compact"
        if self._checkpoint_due():
            start = perf_counter()
            with obs.span("maintenance.step", kind="checkpoint"):
                self.store.checkpoint()
            _STEP_US.labels(kind="checkpoint").observe(
                (perf_counter() - start) * 1e6
            )
            _STEPS.labels(kind="checkpoint").inc()
            self.steps_run += 1
            return "checkpoint"
        return None

    def run(self, max_steps: int = 64) -> list[str]:
        """Step until no debt remains or the budget is spent; returns the
        kinds executed, in order."""
        executed: list[str] = []
        for _ in range(max_steps):
            kind = self.step()
            if kind is None:
                break
            executed.append(kind)
        return executed
