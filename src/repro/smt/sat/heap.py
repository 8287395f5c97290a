"""An indexed max-heap ordered by VSIDS activity.

The CDCL solver needs to repeatedly extract the unassigned variable with the
highest activity and to increase the activity of arbitrary variables.  This
heap supports both in ``O(log n)`` by keeping, for every variable, its
current position inside the heap array.
"""

from __future__ import annotations

from collections.abc import Iterable


class ActivityHeap:
    """Max-heap of variable indices keyed by an external activity array."""

    def __init__(self, activity: list[float]) -> None:
        self._activity = activity
        self._heap: list[int] = []
        self._positions: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, variable: int) -> bool:
        return variable in self._positions

    def push(self, variable: int) -> None:
        """Insert ``variable`` if it is not already present."""
        if variable in self._positions:
            return
        self._heap.append(variable)
        self._positions[variable] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def rebuild(self, variables: Iterable[int]) -> None:
        """Replace the contents with ``variables`` (distinct, equally active).

        Among equals any order is a valid heap, so the given one is kept and
        nothing is sifted.
        """
        self._heap = list(variables)
        self._positions = dict(zip(self._heap, range(len(self._heap))))

    def pop(self) -> int:
        """Remove and return the variable with the highest activity."""
        top = self._heap[0]
        last = self._heap.pop()
        del self._positions[top]
        if self._heap:
            self._heap[0] = last
            self._positions[last] = 0
            self._sift_down(0)
        return top

    def update(self, variable: int) -> None:
        """Restore heap order after ``variable``'s activity increased."""
        position = self._positions.get(variable)
        if position is not None:
            self._sift_up(position)

    # -- internal ---------------------------------------------------------------

    def _sift_up(self, position: int) -> None:
        heap = self._heap
        positions = self._positions
        activity = self._activity
        variable = heap[position]
        key = activity[variable]
        while position > 0:
            parent = (position - 1) >> 1
            above = heap[parent]
            if not key > activity[above]:
                break
            heap[position] = above
            positions[above] = position
            position = parent
        heap[position] = variable
        positions[variable] = position

    def _sift_down(self, position: int) -> None:
        heap = self._heap
        positions = self._positions
        activity = self._activity
        size = len(heap)
        variable = heap[position]
        key = activity[variable]
        while True:
            child = 2 * position + 1
            if child >= size:
                break
            right = child + 1
            if right < size and activity[heap[right]] > activity[heap[child]]:
                child = right
            below = heap[child]
            if not activity[below] > key:
                break
            heap[position] = below
            positions[below] = position
            position = child
        heap[position] = variable
        positions[variable] = position
