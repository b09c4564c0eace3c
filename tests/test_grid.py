"""Every case of the CLI contract grid (``grid.py``) against its recorded digest.

A failure here is a change to the CLI contract: ``PYTHONPATH=src python
tests/grid.py`` prints the outputs of every case that differs.
"""

import pytest

import grid

CASES = grid.cases()
RECORDED = grid.recorded()


def test_the_record_covers_the_grid():
    assert RECORDED.keys() == CASES.keys()


def test_every_check_has_a_failing_case():
    assert grid.PERTURBED.keys() == set(grid.verify.ALL_CHECKS)


@pytest.mark.parametrize("key", sorted(CASES))
def test_outcome_matches_record(key):
    result = grid.outcome(*CASES[key])
    assert grid.digest(result) == RECORDED.get(key), result
