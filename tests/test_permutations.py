from itertools import permutations as iter_perms

import pytest

from aldous.permutations import Permutation, parse_permutation


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_composition_right_to_left():
    # a = (1 2), b = (2 3) in S3; (a*b) applies b first
    a = Permutation.transposition(3, 1, 2)
    b = Permutation.transposition(3, 2, 3)
    ab = a * b
    assert ab(3) == 1  # b: 3->2, a: 2->1
    assert ab.images == (2, 3, 1)


def test_inverse_and_identity():
    p = Permutation((3, 1, 4, 2))
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_adjacent_factorization_reconstructs():
    for n in range(1, 6):
        for word in iter_perms(range(1, n + 1)):
            p = Permutation(word)
            prod = Permutation.identity(n)
            for i in p.adjacent_factorization():
                prod = prod * Permutation.transposition(n, i, i + 1)
            assert prod == p


def test_adjacent_factorization_length_is_inversions():
    p = Permutation((4, 3, 2, 1))
    assert len(p.adjacent_factorization()) == 6


def test_cycles_and_str():
    p = Permutation((2, 1, 4, 3, 5))
    assert p.cycles() == [(1, 2), (3, 4)]
    assert str(p) == "(1 2)(3 4)"
    assert str(Permutation.identity(3)) == "()"


class TestParse:
    def test_single_digit_shorthand(self):
        assert parse_permutation("(14)", 4) == Permutation.transposition(4, 1, 4)

    def test_spaces_and_commas(self):
        assert parse_permutation("(1 4)", 4) == parse_permutation("(1,4)", 4)

    def test_multi_cycle_right_to_left(self):
        p = parse_permutation("(1 2)(2 3)", 3)
        assert p == Permutation.transposition(3, 1, 2) * Permutation.transposition(3, 2, 3)

    def test_one_line(self):
        assert parse_permutation("2,1,4,3", 4).images == (2, 1, 4, 3)

    @pytest.mark.parametrize("text", ["(1 2", "(1 2)(3", "(1 2))", "((1 2)", "(1 2) 3"])
    def test_malformed_cycle_notation(self, text):
        with pytest.raises(ValueError, match="malformed cycle notation"):
            parse_permutation(text, 4)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 5)", 4)
        with pytest.raises(ValueError):
            parse_permutation("(1 1)", 4)
        with pytest.raises(ValueError):
            parse_permutation("2,1", 4)
        with pytest.raises(ValueError):
            parse_permutation("", 4)


def test_full_group_closure_s4():
    group = {Permutation(word) for word in iter_perms(range(1, 5))}
    assert len(group) == 24
    assert {a * b for a in group for b in group} == group
    assert {a.inverse() for a in group} == group
