"""The global parameter table ``K`` (paper §2.1, Fig. 5).

``K`` has one row per UID-local area: *(global index, local index of
the area's root inside the upper area, local fan-out)*. Together with
the scalar ``κ`` it is the entire state needed to run ``rparent()`` and
the axis routines in main memory — the paper's key systems claim.

The table is kept sorted by global index; lookups are O(log |K|)
bisections, and the two secondary probes the axis routines need
(rows by *(global, local)* pair and rows by frame-parent) are answered
from the same sorted array.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownLabelError


@dataclass(frozen=True)
class KRow:
    """One row of table K."""

    global_index: int
    local_index: int  # index of the area root inside the upper area
    fan_out: int  # local fan-out k_i used to enumerate the area

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.global_index, self.local_index, self.fan_out)


class KTable:
    """Sorted, memory-resident table of :class:`KRow` entries."""

    def __init__(self, rows: Optional[List[KRow]] = None):
        self._rows: List[KRow] = sorted(rows or [], key=lambda r: r.global_index)
        self._globals: List[int] = [r.global_index for r in self._rows]
        self._pair_index_cache: Dict[int, Dict[Tuple[int, int], int]] = {}
        self._check_unique()

    def _check_unique(self) -> None:
        for a, b in zip(self._globals, self._globals[1:]):
            if a == b:
                raise ValueError(f"duplicate global index {a} in table K")

    # -- mutation (used by the build algorithm, Fig. 3 line 10) --------
    def add(self, row: KRow) -> None:
        """Insert a row, keeping the table sorted by global index."""
        position = bisect_left(self._globals, row.global_index)
        if position < len(self._globals) and self._globals[position] == row.global_index:
            raise ValueError(f"duplicate global index {row.global_index}")
        self._rows.insert(position, row)
        self._globals.insert(position, row.global_index)
        self._pair_index_cache.clear()

    # -- lookups --------------------------------------------------------
    def row(self, global_index: int) -> KRow:
        """The row for an area's global index."""
        position = bisect_left(self._globals, global_index)
        if position < len(self._globals) and self._globals[position] == global_index:
            return self._rows[position]
        raise UnknownLabelError(f"no area with global index {global_index}")

    def has_area(self, global_index: int) -> bool:
        position = bisect_left(self._globals, global_index)
        return position < len(self._globals) and self._globals[position] == global_index

    def fan_out(self, global_index: int) -> int:
        """Local fan-out of the area, floored at 1 so that the UID
        arithmetic stays well defined for single-node areas."""
        return max(1, self.row(global_index).fan_out)

    def local_of_root(self, global_index: int) -> int:
        """Local index of the area's root within the upper area."""
        return self.row(global_index).local_index

    def build_pair_index(self, kappa: int) -> Dict[Tuple[int, int], int]:
        """Materialise the (upper global, local) → child global map,
        deriving each area's frame parent arithmetically from κ.

        Cached per κ (the axis routines call this on every step);
        mutations invalidate the cache.
        """
        cached = self._pair_index_cache.get(kappa)
        if cached is not None:
            return cached
        pairs: Dict[Tuple[int, int], int] = {}
        for row in self._rows:
            if row.global_index == 1:
                continue  # the top area has no upper area
            upper = (row.global_index - 2) // max(1, kappa) + 1
            pairs[(upper, row.local_index)] = row.global_index
        self._pair_index_cache[kappa] = pairs
        return pairs

    def globals_in_range(self, low: int, high: int) -> List[int]:
        """Existing global indices within [low, high] — the frame
        children probe of ``rchildren`` (§3.5)."""
        start = bisect_left(self._globals, low)
        result: List[int] = []
        for index in range(start, len(self._globals)):
            value = self._globals[index]
            if value > high:
                break
            result.append(value)
        return result

    def rows(self) -> Iterator[KRow]:
        return iter(self._rows)

    def _position(self, global_index: int) -> int:
        position = bisect_left(self._globals, global_index)
        if position >= len(self._globals) or self._globals[position] != global_index:
            raise UnknownLabelError(f"no area with global index {global_index}")
        return position

    def replace(self, row: KRow) -> None:
        """Replace the row with the same global index (fan-out updates
        after an area enlargement, §3.2)."""
        self._rows[self._position(row.global_index)] = row
        self._pair_index_cache.clear()

    def remove(self, global_index: int) -> None:
        """Drop an area's row (its root was deleted, §3.2)."""
        position = self._position(global_index)
        del self._rows[position]
        del self._globals[position]
        self._pair_index_cache.clear()

    def memory_bytes(self) -> int:
        """Rough size of the table if stored as three machine words per
        row — the paper's 'small-size global information' (§1)."""
        return len(self._rows) * 3 * 8

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[KRow]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"<KTable areas={len(self._rows)}>"
