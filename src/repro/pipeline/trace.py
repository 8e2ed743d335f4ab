"""Dynamic basic-block trace records.

The integrity monitor operates on *dynamic* basic blocks: runs of executed
instructions that end at a flow-control instruction (branch, jump, indirect
jump, or trap).  A :class:`BlockTrace` is the sequence of such runs observed
during one execution; it is the input to trace-driven IHT replay (the fast
path behind the Figure 6 miss-rate sweep).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class BlockEvent:
    """One executed dynamic basic block: [start, end] inclusive addresses."""

    start: int
    end: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def length(self) -> int:
        """Number of instructions in the block."""
        return ((self.end - self.start) >> 2) + 1


@dataclass(slots=True)
class BlockTrace:
    """An ordered trace of executed basic blocks."""

    events: list[BlockEvent] = field(default_factory=list)

    def append(self, start: int, end: int) -> None:
        self.events.append(BlockEvent(start, end))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def unique_blocks(self) -> set[tuple[int, int]]:
        """Distinct (start, end) block identities executed."""
        return {event.key for event in self.events}

    def execution_counts(self) -> Counter:
        """How many times each block identity was executed."""
        return Counter(event.key for event in self.events)

    def summary(self) -> str:
        unique = self.unique_blocks()
        return (
            f"{len(self.events)} block executions, "
            f"{len(unique)} distinct blocks"
        )


@dataclass(frozen=True, slots=True, eq=False)
class TraceMark:
    """A block trace as of a checkpoint, in O(1) space.

    Shares the trace's append-only event list and records its length at
    the mark, so a store of many checkpoints holds (and pickles) one list
    rather than one growing copy per checkpoint.  The mark stays valid
    because nothing truncates or rewrites a shared list:
    :func:`restore_trace` hands the simulator a fresh list instead.
    """

    events: list[BlockEvent]
    length: int

    def keys(self) -> tuple[tuple[int, int], ...]:
        """The ``(start, end)`` identities of the marked prefix."""
        return tuple(event.key for event in self.events[: self.length])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceMark):
            return NotImplemented
        return self.length == other.length and self.keys() == other.keys()


def mark_trace(trace: BlockTrace | None) -> TraceMark | None:
    """Checkpoint *trace* (``None`` when the simulator collects none)."""
    if trace is None:
        return None
    return TraceMark(trace.events, len(trace.events))


def restore_trace(trace: BlockTrace | None, mark: TraceMark | None) -> None:
    """Rewind *trace* to *mark*: the marked prefix, in a fresh list.

    A mark taken without a trace restores an empty one.  Building a new
    list (never clearing the current one in place) keeps every earlier
    mark on the current list valid.
    """
    if trace is not None:
        trace.events = mark.events[: mark.length] if mark is not None else []


def executed_addresses(trace: BlockTrace) -> tuple[int, ...]:
    """Every instruction address the trace executed, sorted.

    The single definition of "executed code" shared by the fault
    campaign's injection pool, the attack corpus, and the golden-trace
    replay backend — all of which must agree on which addresses a fault
    can reach.
    """
    addresses: set[int] = set()
    for event in trace:
        addresses.update(range(event.start, event.end + 4, 4))
    return tuple(sorted(addresses))
