"""Post-write barriers.

Parallel Scavenge pairs every reference store into the old generation with
a card-table mark.  TeraHeap extends the barrier (in the interpreter and
the C1/C2 JIT templates) with a reference range check that selects the H1
or the H2 card table (Section 4).  The paper measures the extra check at
<=3% on DaCapo and exactly zero when ``EnableTeraHeap`` is off; the
benchmark in ``benchmarks/test_barrier_overhead.py`` reproduces that.
"""

from __future__ import annotations

from typing import List, Sequence

from ..clock import Clock
from ..config import CostModel
from .heap import ManagedHeap
from .store import SPACE_H2, SPACE_OLD, HeapStore


class WriteBarrier:
    """Post-write barrier with the optional TeraHeap range check."""

    def __init__(
        self,
        heap: ManagedHeap,
        clock: Clock,
        cost: CostModel,
        h2_card_table=None,
        enable_teraheap: bool = False,
    ):
        self.heap = heap
        self.clock = clock
        self.cost = cost
        self.h2_card_table = h2_card_table
        self.enable_teraheap = enable_teraheap
        self.barrier_count = 0
        self.h2_marks = 0

    @property
    def store_cost(self) -> float:
        """Seconds one reference store's barrier costs the mutator."""
        extra = (
            self.cost.teraheap_barrier_extra if self.enable_teraheap else 0.0
        )
        return self.cost.barrier_cost + extra

    def mark_stores(
        self, store: HeapStore, srcs: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Card marks of a run of stores ``srcs[i].field = targets[i]``.

        Dirty the H1 card when an old-generation object is updated, or the
        H2 card when an H2-resident object is updated by a mutator thread
        (the H2 dirty state, Section 3.4).  The caller charges
        :attr:`store_cost` per store, in program order; the marks only
        set card states and counters, so they may trail the charges as
        long as they land before the next collection reads the tables.
        """
        space = store.space
        address = store.address
        h2_cards = self.h2_card_table if self.enable_teraheap else None
        old: List[int] = []
        for src in srcs:
            code = space[src]
            if code == SPACE_H2 and self.enable_teraheap:
                if h2_cards is not None:
                    h2_cards.mark_dirty(address[src])
                    self.h2_marks += 1
            elif code == SPACE_OLD:
                old.append(address[src])
        if old:
            self.heap.card_table.mark_all(old)
        self.barrier_count += len(srcs)
