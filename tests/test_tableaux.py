import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldous.tableaux import (
    Partition,
    StandardTableau,
    content,
    content_sum,
    covers_below,
    enumerate_partitions,
    enumerate_syt,
    f_dim,
    max_corner_content,
    parse_partition,
    removable_corners,
)


def hook_count(parts):
    """Independent oracle: number of standard tableaux via hook lengths."""
    n = sum(parts)
    prod = 1
    for i, p in enumerate(parts):
        for j in range(p):
            arm = p - j - 1
            leg = sum(1 for q in parts[i + 1 :] if q > j)
            prod *= arm + leg + 1
    return math.factorial(n) // prod


def brute_partition_count(n):
    """Independent oracle: partition count via the classic recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for cap in range(n + 1):
        table[cap][0] = 1
    for cap in range(1, n + 1):
        for m in range(1, n + 1):
            table[cap][m] = table[cap - 1][m] + (table[cap][m - cap] if m >= cap else 0)
    return table[n][n]


partitions_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_n_and_conjugate(self):
        lam = Partition((4, 2, 1))
        assert lam.n == 7
        assert lam.conjugate() == Partition((3, 2, 1, 1))
        assert lam.conjugate().conjugate() == lam

    def test_parse(self):
        assert parse_partition("4,3^2,1") == Partition((4, 3, 3, 1))
        assert parse_partition("2,1^2") == Partition((2, 1, 1))
        assert parse_partition("1,3,2") == Partition((3, 2, 1))
        with pytest.raises(ValueError):
            parse_partition("3,^2")
        with pytest.raises(ValueError):
            parse_partition("2,0")


class TestEnumeratePartitions:
    def test_n1(self):
        assert enumerate_partitions(1) == [Partition((1,))]

    def test_n4_matches_known_list(self):
        assert [p.parts for p in enumerate_partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts_against_recurrence(self):
        for n in range(1, 11):
            got = enumerate_partitions(n)
            assert len(got) == brute_partition_count(n)
            assert len(set(p.parts for p in got)) == len(got)

    def test_n6_has_11(self):
        assert len(enumerate_partitions(6)) == 11

    def test_reverse_lex_order(self):
        for n in range(1, 9):
            parts = [p.parts for p in enumerate_partitions(n)]
            assert parts == sorted(parts, reverse=True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)


class TestStandardTableau:
    def test_validation(self):
        with pytest.raises(ValueError):
            StandardTableau(((1, 3), (2, 2)))
        with pytest.raises(ValueError):
            StandardTableau(((2, 1),))
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (3, 4), (5, 6, 7)))
        # column must increase
        with pytest.raises(ValueError):
            StandardTableau(((2, 4), (1, 3)))

    def test_single_row_forced(self):
        assert f_dim(Partition((5,))) == 1

    def test_shape_22_has_two(self):
        tabs = enumerate_syt(Partition((2, 2)))
        assert len(tabs) == 2
        assert [t.rows for t in tabs] == [((1, 2), (3, 4)), ((1, 3), (2, 4))]

    def test_shape_31_has_three_in_dictionary_order(self):
        tabs = enumerate_syt(Partition((3, 1)))
        assert [t.rows for t in tabs] == [
            ((1, 2, 3), (4,)),
            ((1, 2, 4), (3,)),
            ((1, 3, 4), (2,)),
        ]

    def test_dictionary_order_is_total(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                words = [t.reading_word() for t in enumerate_syt(lam)]
                assert words == sorted(words)
                assert len(set(words)) == len(words)

    def test_swap_and_restrict(self):
        t = StandardTableau(((1, 2, 4), (3,)))
        assert t.swap_values(3, 4).rows == ((1, 2, 3), (4,))
        assert t.restricted().rows == ((1, 2), (3,))


class TestFDim:
    @pytest.mark.parametrize(
        "parts,expected",
        [((4,), 1), ((3, 1), 3), ((2, 2), 2), ((2, 1, 1), 3), ((1, 1, 1, 1), 1)],
    )
    def test_s4_dimensions(self, parts, expected):
        assert f_dim(Partition(parts)) == expected

    def test_matches_hook_oracle(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert f_dim(lam) == hook_count(lam.parts)

    def test_matches_tableau_count(self):
        # enumeration stays the reference for the hook length formula
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                assert f_dim(lam) == len(enumerate_syt(lam))

    def test_square_sum_is_factorial(self):
        for n in range(1, 9):
            assert sum(f_dim(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)
        assert sum(f_dim(lam) ** 2 for lam in enumerate_partitions(4)) == 24

    @given(partitions_strategy)
    def test_conjugate_has_same_dimension(self, lam):
        assert f_dim(lam) == f_dim(lam.conjugate())


class TestContent:
    def test_box_11_is_zero(self):
        t = StandardTableau(((1,),))
        assert content(t, 1) == 0

    def test_shape_421_contents(self):
        # diagram contents row by row: 0,1,2,3 / -1,0 / -2
        t = StandardTableau(((1, 2, 3, 4), (5, 6), (7,)))
        assert [content(t, i) for i in range(1, 8)] == [0, 1, 2, 3, -1, 0, -2]

    def test_seven_in_row3_col1(self):
        t = StandardTableau(((1, 2, 3, 4), (5, 6), (7,)))
        assert content(t, 7) == -2

    def test_out_of_range(self):
        t = StandardTableau(((1, 2),))
        with pytest.raises(ValueError):
            content(t, 3)

    @pytest.mark.parametrize(
        "parts,expected",
        [((5,), 10), ((4, 2, 1), 3), ((1, 1, 1, 1), -6), ((2, 2), 0)],
    )
    def test_content_sum_values(self, parts, expected):
        # oracle: sum contents box by box
        lam = Partition(parts)
        boxes = sum(
            c - r for r, p in enumerate(parts, start=1) for c in range(1, p + 1)
        )
        assert boxes == expected
        assert content_sum(lam) == expected

    def test_content_sum_tableau_independent(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                expected = content_sum(lam)
                for t in enumerate_syt(lam):
                    assert sum(content(t, i) for i in range(1, n + 1)) == expected


class TestCovers:
    def test_431(self):
        assert [p.parts for p in covers_below(Partition((4, 3, 1)))] == [
            (3, 3, 1),
            (4, 2, 1),
            (4, 3),
        ]

    def test_single_row(self):
        assert covers_below(Partition((6,))) == [Partition((5,))]

    def test_22_only_corner(self):
        assert covers_below(Partition((2, 2))) == [Partition((2, 1))]

    def test_branching_dimension_identity(self):
        for n in range(2, 9):
            for lam in enumerate_partitions(n):
                assert f_dim(lam) == sum(f_dim(mu) for mu in covers_below(lam))

    @given(partitions_strategy)
    @settings(max_examples=60)
    def test_corner_removal_groups_tableaux(self, lam):
        # restriction is a bijection between tableaux with n in a given
        # corner and tableaux of the smaller shape
        if lam.n < 2:
            return
        by_corner = {}
        for t in enumerate_syt(lam):
            by_corner.setdefault(t.position(lam.n), []).append(t.restricted())
        assert set(by_corner) == set(removable_corners(lam))
        for (row, _), restricted in by_corner.items():
            parts = list(lam.parts)
            parts[row - 1] -= 1
            smaller = Partition(tuple(p for p in parts if p))
            assert sorted(r.reading_word() for r in restricted) == [
                t.reading_word() for t in enumerate_syt(smaller)
            ]


class TestMaxCornerContent:
    @pytest.mark.parametrize(
        "parts,expected", [((3, 1), 2), ((2, 2), 0), ((1, 1, 1, 1), -3), ((4, 4, 2), 2)]
    )
    def test_values(self, parts, expected):
        assert max_corner_content(Partition(parts)) == expected

    def test_equals_max_content_of_n_over_tableaux(self):
        for n in range(2, 9):
            for lam in enumerate_partitions(n):
                best = max(content(t, n) for t in enumerate_syt(lam))
                assert max_corner_content(lam) == best
