"""GC task decomposition: the units of work GC workers claim.

A GC cycle is broken into :class:`GCTask` items — root-set partitions,
dirty-card chunks, H2 card slices, object-scan batches, copy batches and
compaction regions — each carrying a cost computed from the existing
cost model.  The decomposition mirrors Parallel Scavenge's task queues
(``GCTaskQueue``) and TeraHeap's striped H2 card table: tasks that model
stripe-owned work carry an *affinity* so they start on the owning
worker's deque and only migrate by stealing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np


@dataclass
class GCTask:
    """One schedulable unit of GC work."""

    name: str
    cost: float  # simulated seconds of CPU work
    kind: str = "scan"
    #: preferred worker (stripe/chunk ownership); ``None`` = round-robin
    affinity: Optional[int] = None


class TaskBag:
    """Accumulates the tasks of one parallel GC phase."""

    def __init__(self) -> None:
        self.tasks: List[GCTask] = []

    def add(
        self,
        name: str,
        cost: float,
        kind: str = "scan",
        affinity: Optional[int] = None,
    ) -> None:
        if cost < 0:
            raise ValueError(f"task {name!r} has negative cost {cost}")
        self.tasks.append(GCTask(name, cost, kind, affinity))

    def batcher(
        self, name: str, kind: str, batch_items: int
    ) -> "BatchBuilder":
        return BatchBuilder(self, name, kind, batch_items)

    @property
    def serial_seconds(self) -> float:
        return sum(t.cost for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __bool__(self) -> bool:
        return bool(self.tasks)

    def __iter__(self) -> Iterator[GCTask]:
        return iter(self.tasks)


class BatchBuilder:
    """Folds per-object costs into fixed-size batch tasks.

    Object scanning and copying are too fine-grained to schedule one
    object at a time; real collectors claim them in chunks (promotion
    buffers, PLAB-sized copy batches).  ``add`` accumulates cost and
    emits one task every ``batch_items`` objects; call ``flush`` at the
    end of the phase for the partial tail batch.

    ``add_many`` folds a whole vector of per-object costs at once.  It
    performs the same float additions in the same order as one ``add``
    per cost, so task names, batch boundaries and every task's cost are
    bit-identical: callers may compute a phase's costs in visit order and
    fold them at the end.
    """

    def __init__(self, bag: TaskBag, name: str, kind: str, batch_items: int):
        if batch_items < 1:
            raise ValueError(f"batch size must be >=1, got {batch_items}")
        self.bag = bag
        self.name = name
        self.kind = kind
        self.batch_items = batch_items
        self._cost = 0.0
        self._count = 0
        self._index = 0

    def add(self, cost: float) -> None:
        self._cost += cost
        self._count += 1
        if self._count >= self.batch_items:
            self.flush()

    def add_many(self, costs) -> None:
        """``add`` each of ``costs`` (a float sequence or array), in order.

        Each batch's cost is the running sum of its objects' costs in
        visit order, computed with ``np.cumsum``: an accumulation is
        strictly sequential, so every task gets the float an ``add`` loop
        would give it (costs are non-negative; ``-0.0`` never occurs).
        No Python float per object is created.
        """
        values = np.asarray(costs, dtype=np.float64)
        if not values.size:
            return
        limit = self.batch_items
        room = limit - self._count
        head = np.concatenate(((self._cost,), values[:room]))
        self._cost = float(np.cumsum(head)[-1])
        if values.size < room:
            self._count += values.size
            return
        self._count = limit
        self.flush()
        rest = values[room:]
        full = rest.size // limit
        if full:
            rows = rest[: full * limit].reshape(full, limit)
            for total in np.cumsum(rows, axis=1)[:, -1].tolist():
                self._cost = total
                self._count = limit
                self.flush()
        tail = rest[full * limit :]
        if tail.size:
            self._cost = float(np.cumsum(tail)[-1])
            self._count = tail.size

    def flush(self) -> None:
        if self._count == 0:
            return
        self.bag.add(f"{self.name}-{self._index}", self._cost, self.kind)
        self._index += 1
        self._cost = 0.0
        self._count = 0


def chunked_sweep(
    bag: TaskBag,
    name: str,
    num_items: int,
    per_item_cost: float,
    chunk_items: int,
    kind: str = "cards",
    extra: Optional[Dict[int, float]] = None,
) -> None:
    """Decompose a conceptual-table sweep into chunk tasks.

    One task per ``chunk_items`` entries, each costing the flat per-entry
    sweep plus any ``extra`` cost attributed to entries in that chunk
    (e.g. scanning the objects of a dirty card).  Chunk index doubles as
    worker affinity, modelling striped table ownership.
    """
    if num_items <= 0:
        return
    if chunk_items < 1:
        raise ValueError(f"chunk size must be >=1, got {chunk_items}")
    extra_by_chunk: Dict[int, float] = {}
    if extra:
        for idx, cost in extra.items():
            cid = idx // chunk_items
            extra_by_chunk[cid] = extra_by_chunk.get(cid, 0.0) + cost
    num_chunks = (num_items + chunk_items - 1) // chunk_items
    for cid in range(num_chunks):
        items = min(chunk_items, num_items - cid * chunk_items)
        cost = items * per_item_cost + extra_by_chunk.get(cid, 0.0)
        bag.add(f"{name}-{cid}", cost, kind=kind, affinity=cid)
