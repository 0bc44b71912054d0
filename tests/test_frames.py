"""Frame changes: the same structure written in a polynomial frame keeps
every verdict, and its polynomial Gram matrix is accepted by the Dirac
checks."""

import itertools

import pytest

from conftest import FRAMES
from oracles import dense_bracket, dense_pairing, frame_change

from courantkit.axioms import SUITES, _NEEDS_TWIST, check_axioms
from courantkit.dirac import search_coordinate_dirac
from courantkit.structure import Section

UNTWISTED = sorted(set(SUITES) - _NEEDS_TWIST)


def test_frame_file_is_std2_moved(std2, std2_frame):
    assert frame_change(std2, FRAMES["std2"]) == std2_frame
    assert not std2_frame.gram.is_rational()


@pytest.mark.parametrize("fixture", sorted(FRAMES))
@pytest.mark.parametrize("suite", UNTWISTED)
def test_untwisted_verdicts_survive_the_frame(request, fixture, suite):
    spec = request.getfixturevalue(fixture)
    moved = frame_change(spec, FRAMES[fixture])
    assert not moved.gram.is_rational()
    assert check_axioms(moved, suite).failing() == check_axioms(spec, suite).failing()


def test_lie_rinehart_fails_in_both_frames(std2):
    # the comparison above is not between two empty lists everywhere
    moved = frame_change(std2, FRAMES["std2"])
    assert check_axioms(moved, "lie-rinehart").failing()


class TestFrameFile:
    def test_courant_passes(self, std2_frame):
        assert check_axioms(std2_frame, "courant").passed

    def test_search(self, std2_frame):
        found = search_coordinate_dirac(std2_frame)
        subsets = [tuple(next(i for i, c in enumerate(g.coeffs) if not c.is_zero())
                         for g in sub.generators) for sub in found]
        assert subsets == [(0, 1), (0, 3), (2, 3)]
        for subset in subsets:
            basis = [Section.basis(i, 4) for i in subset]
            for a, b in itertools.product(basis, repeat=2):
                assert dense_pairing(std2_frame, a, b).is_zero()
                image = dense_bracket(std2_frame, a, b)
                assert all(c.is_zero() for k, c in enumerate(image.coeffs)
                           if k not in subset)
