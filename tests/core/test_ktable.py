"""Tests for the global parameter table K."""

import pytest

from repro.core import KRow, KTable
from repro.errors import UnknownLabelError


@pytest.fixture
def fig5_table():
    """The table K of the paper's Fig. 5 (see Example 2): six areas,
    row layout (global, local-of-root, local fan-out)."""
    return KTable(
        [
            KRow(1, 1, 4),
            KRow(2, 2, 2),
            KRow(3, 3, 3),
            KRow(4, 4, 2),
            KRow(10, 9, 2),
            KRow(13, 5, 2),
        ]
    )


class TestConstruction:
    def test_rows_sorted(self):
        table = KTable([KRow(5, 1, 2), KRow(2, 3, 1), KRow(9, 2, 4)])
        assert [row.global_index for row in table] == [2, 5, 9]

    def test_duplicate_global_rejected(self):
        with pytest.raises(ValueError):
            KTable([KRow(2, 1, 1), KRow(2, 2, 2)])

    def test_add_keeps_sorted_and_unique(self, fig5_table):
        fig5_table.add(KRow(7, 2, 3))
        assert [row.global_index for row in fig5_table] == [1, 2, 3, 4, 7, 10, 13]
        with pytest.raises(ValueError):
            fig5_table.add(KRow(7, 9, 9))


class TestLookups:
    def test_row(self, fig5_table):
        assert fig5_table.row(10) == KRow(10, 9, 2)
        with pytest.raises(UnknownLabelError):
            fig5_table.row(99)

    def test_has_area(self, fig5_table):
        assert fig5_table.has_area(4)
        assert not fig5_table.has_area(5)

    def test_fan_out_floored_at_one(self):
        table = KTable([KRow(1, 1, 0)])
        assert table.fan_out(1) == 1

    def test_local_of_root(self, fig5_table):
        assert fig5_table.local_of_root(10) == 9

    def test_globals_in_range(self, fig5_table):
        assert fig5_table.globals_in_range(2, 4) == [2, 3, 4]
        assert fig5_table.globals_in_range(5, 9) == []
        assert fig5_table.globals_in_range(10, 99) == [10, 13]

    def test_replace(self, fig5_table):
        fig5_table.replace(KRow(2, 2, 5))
        assert fig5_table.fan_out(2) == 5
        with pytest.raises(UnknownLabelError):
            fig5_table.replace(KRow(50, 1, 1))

    def test_remove(self, fig5_table):
        pairs = fig5_table.build_pair_index(4)
        assert pairs[(3, 9)] == 10
        fig5_table.remove(10)
        assert not fig5_table.has_area(10)
        assert fig5_table.globals_in_range(10, 99) == [13]
        assert (3, 9) not in fig5_table.build_pair_index(4)  # cache dropped
        with pytest.raises(UnknownLabelError):
            fig5_table.remove(10)


class TestPairIndex:
    def test_pair_index_derives_frame_parent(self, fig5_table):
        # κ = 4: frame parent of g is (g-2)//4 + 1
        pairs = fig5_table.build_pair_index(4)
        assert pairs[(1, 2)] == 2  # area 2 roots at local 2 of area 1
        assert pairs[(1, 3)] == 3
        assert pairs[(1, 4)] == 4
        assert pairs[(3, 9)] == 10  # (10-2)//4+1 == 3
        assert pairs[(3, 5)] == 13  # (13-2)//4+1 == 3
        assert (1, 1) not in pairs  # the top area has no upper entry

    def test_memory_accounting(self, fig5_table):
        assert fig5_table.memory_bytes() == 6 * 24
        assert len(fig5_table) == 6
