import pytest

from folkman.arrowing import find_free_coloring
from folkman.bounds import best_bounds
from folkman.graphs import cycle
from folkman.signatures import Signature, as_signature, merge_at, normalize


def test_normalize_drops_ones_and_sorts():
    sig = normalize([3, 1, 2])
    assert sig.parts == (2, 3)
    assert sig.m == 4
    assert sig.p == 3


def test_normalize_boundary_family():
    sig = normalize([2, 2, 5])
    assert sig.parts == (2, 2, 5)
    assert sig.m == 7
    assert sig.p == 5


def test_all_ones_yield_empty_signature():
    sig = normalize([1, 1])
    assert sig.is_empty
    assert sig.r == 0
    assert str(sig) == "(empty)"


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        normalize([])


@pytest.mark.parametrize("raw", [[0], [-1, 2], [2, 0, 3]])
def test_nonpositive_entries_rejected(raw):
    with pytest.raises(ValueError):
        normalize(raw)


def test_non_integer_entries_rejected():
    # No Folkman number has a part of 2.5.  Unchecked, such a part gives a
    # "2.5,3" signature, a "free" coloring of C5 (which arrows (2,2)) with
    # one class, and a bare TypeError from the bound arithmetic.
    for call in (lambda: normalize([2.5, 3]), lambda: find_free_coloring(cycle(5), [2.5, 2.5]),
                 lambda: best_bounds([2.5, 3], 4), lambda: Signature((2, 2.5))):
        with pytest.raises(ValueError, match="signature entries must be integers, got 2.5"):
            call()
    with pytest.raises(ValueError, match="integers, got '3'"):
        normalize([2, "3"])
    assert normalize([True, 3, 2]).parts == (2, 3)  # a bool reads as its int, as before
    with pytest.raises(ValueError, match="must be positive"):
        normalize([False, 2])


def test_m_p_undefined_for_empty():
    sig = normalize([1])
    with pytest.raises(ValueError):
        _ = sig.m
    with pytest.raises(ValueError):
        _ = sig.p


def test_signature_constructor_enforces_normal_form():
    with pytest.raises(ValueError):
        Signature((3, 2))
    with pytest.raises(ValueError):
        Signature((1, 2))


def test_m_is_one_plus_sum_of_decrements():
    assert normalize([3, 4]).m == 6
    assert normalize([3, 4]).p == 4
    assert normalize([2, 2, 3]).m == 5
    # m = p + 2 in the boundary family
    for p in range(2, 9):
        assert normalize([2, 2, p]).m == p + 2


def test_as_signature_accepts_both():
    sig = normalize([2, 3])
    assert as_signature(sig) is sig
    assert as_signature([3, 2]) == sig


def test_merge_at_reads_position_as_an_integer():
    for position in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="position must be an integer"):
            merge_at([2, 2], [2, 2], position)
    assert merge_at([2, 2], [2, 3], True) == normalize([2, 5])
