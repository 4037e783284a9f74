"""Inter-task communication: bounded queues.

FreeRTOS's staple primitive, with the behaviour the security and
real-time analyses need: blocking with priority-ordered wakeup.
"""

from __future__ import annotations

from collections import deque


class MessageQueue:
    """Bounded FIFO queue; senders block when full, receivers when empty."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._items = deque()

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item) -> None:
        if self.full:
            raise RuntimeError("push on full queue (kernel bug)")
        self._items.append(item)

    def pop(self):
        if self.empty:
            raise RuntimeError("pop on empty queue (kernel bug)")
        return self._items.popleft()
