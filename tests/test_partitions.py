import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly.partitions import (
    NotContained,
    NotHorizontalStrip,
    check_partition,
    column_multiplicities,
    conjugate,
    contains,
    enumerate_partitions,
    horizontal_strip_subs,
    is_horizontal_strip,
    is_vertical_strip,
    outer_row_stat,
    part,
    row_multiplicities,
    size,
    skew_boxes,
    skew_stats,
    subpartitions,
    vertical_strip_subs,
)


class TestEncodings:
    def test_row_multiplicities(self):
        assert row_multiplicities((4, 4, 4, 3, 1)) == (1, 0, 1, 3)
        assert row_multiplicities(()) == ()
        assert row_multiplicities((2, 2)) == (0, 2)

    def test_column_multiplicities(self):
        assert column_multiplicities((5, 4, 4, 3)) == (1, 0, 1, 3)
        assert column_multiplicities(()) == ()
        assert column_multiplicities((2, 2)) == (0, 2)

    def test_padding(self):
        assert row_multiplicities((2, 1), 4) == (1, 1, 0, 0)
        with pytest.raises(ValueError):
            row_multiplicities((3,), 2)

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_transpose_duality(self):
        lam = (5, 4, 4, 3)
        assert column_multiplicities(conjugate(lam)) == row_multiplicities(lam)


class TestStrips:
    def test_horizontal_strip(self):
        assert is_horizontal_strip((4, 3, 2, 1), (3, 2, 2, 1))
        assert is_horizontal_strip((2, 1), (2, 1))
        assert not is_horizontal_strip((2, 2), (1,))

    def test_vertical_strip(self):
        assert is_vertical_strip((2, 1), (1,))
        assert is_vertical_strip((2, 1), (2, 1))
        assert not is_vertical_strip((3, 1), (1,))

    def test_conjugate_equivalence(self):
        for lam in enumerate_partitions(7, 7, 7):
            for mu in subpartitions(lam):
                assert is_horizontal_strip(lam, mu) == is_vertical_strip(
                    conjugate(lam), conjugate(mu)
                )


class TestSkewStats:
    def test_worked_shapes(self):
        assert skew_stats((4, 3, 2, 2, 1), (2, 2, 2)) == (4, 4, 2)
        assert skew_stats((4, 3, 3, 2, 1), (2, 2, 2)) == (5, 4, 2)
        assert skew_stats((4, 3, 3, 3, 1), (2, 2, 2)) == (5, 4, 1)

    def test_empty_skew(self):
        assert skew_stats((3, 1), (3, 1)) == (0, 0, 0)

    def test_not_contained(self):
        with pytest.raises(NotContained):
            skew_stats((2,), (3,))

    def test_inequalities(self):
        for lam in enumerate_partitions(8, 8, 8):
            for mu in subpartitions(lam):
                r, c, b = skew_stats(lam, mu)
                boxes = size(lam) - size(mu)
                assert r + c - b <= boxes
                assert b <= min(r, c) or boxes == 0


def _removable_boxes_not_under_strip(lam, mu):
    """Brute-force reformulation: removable boxes of mu whose column meets no
    box of lam/mu."""
    strip_cols = set()
    for i in range(1, len(lam) + 1):
        strip_cols.update(range(part(mu, i) + 1, part(lam, i) + 1))
    count = 0
    for i in range(1, len(mu) + 1):
        if part(mu, i) > part(mu, i + 1) and part(mu, i) not in strip_cols:
            count += 1
    return count


class TestOuterRowStat:
    def test_worked_examples(self):
        assert outer_row_stat((4, 3, 2, 1), (3, 2, 2, 1)) == 2
        assert outer_row_stat((5, 3, 1), (4, 2)) == 2
        assert outer_row_stat((), ()) == 0

    def test_requires_horizontal_strip(self):
        with pytest.raises(NotHorizontalStrip):
            outer_row_stat((2, 2), (1,))

    def test_matches_removable_box_count(self):
        for lam in enumerate_partitions(8, 8, 8):
            for mu in horizontal_strip_subs(lam):
                assert outer_row_stat(lam, mu) == _removable_boxes_not_under_strip(lam, mu)


class TestEnumeration:
    def test_small_listing(self):
        assert list(enumerate_partitions(2, 2, 2)) == [(), (1,), (2,), (1, 1)]

    def test_bounds_are_honored(self):
        assert list(enumerate_partitions(2, 1, 2)) == [(), (1,), (2,)]
        assert list(enumerate_partitions(2, 2, 1)) == [(), (1,), (1, 1)]

    def test_zero_size(self):
        assert list(enumerate_partitions(0, 5, 5)) == [()]

    def test_cumulative_count(self):
        assert len(list(enumerate_partitions(4, 4, 4))) == 12

    def test_unique_and_ordered(self):
        seen = list(enumerate_partitions(6, 6, 6))
        assert len(seen) == len(set(seen))
        sizes = [size(p) for p in seen]
        assert sizes == sorted(sizes)


class TestStripSubs:
    def test_single_box(self):
        assert horizontal_strip_subs((1,)) == [(), (1,)]

    def test_staircase(self):
        assert horizontal_strip_subs((2, 1)) == [(1,), (2,), (1, 1), (2, 1)]

    def test_empty(self):
        assert horizontal_strip_subs(()) == [()]

    def test_matches_predicate(self):
        for lam in enumerate_partitions(6, 6, 6):
            from_pred = [mu for mu in subpartitions(lam) if is_horizontal_strip(lam, mu)]
            assert sorted(horizontal_strip_subs(lam)) == sorted(from_pred)
            from_pred_v = [mu for mu in subpartitions(lam) if is_vertical_strip(lam, mu)]
            assert sorted(vertical_strip_subs(lam)) == sorted(from_pred_v)


partitions_st = st.lists(
    st.integers(min_value=1, max_value=5), max_size=5
).map(lambda xs: tuple(sorted(xs, reverse=True)))


@settings(max_examples=80, deadline=None)
@given(partitions_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@settings(max_examples=80, deadline=None)
@given(partitions_st)
def test_skew_boxes_count(lam):
    assert len(skew_boxes(lam, ())) == size(lam)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    with pytest.raises(ValueError):
        check_partition((2.7, 1.2))
    assert check_partition((3, 1, 0, 0)) == (3, 1)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
