"""The cross-checks between two routes to the same quantity run in the
acceptance gate, not in the library: each must fail its criterion when one of
the routes returns a wrong value. Criteria run here at a reduced scale."""

import pytest

from simtree import verification
from simtree.laurent import LaurentPoly

SMALL = dict(max_vertices=4, witness_max=3, witness_extended=3, threshold_max=5)


def _one(*args, **kwargs):
    return LaurentPoly.one()


@pytest.mark.parametrize("check, route, wrong", [
    (verification.check_11_hearing, "lsg_recursive", lambda cx, i: []),
    (verification.check_12_threshold_ferrers, "shifted_tau_fine", _one),
    (verification.check_06_weighted_bipyramid, "shifted_tau_coarse", _one),
    (verification.check_13_property_suites, "shifted_tau_coarse", _one),
    (verification.check_06_weighted_bipyramid, "tau_via_reduced_laplacian", lambda *a: 16),
    (verification.check_13_property_suites, "weighted_tau", _one),
], ids=["11-lsg_recursive", "12-shifted_tau_fine", "06-shifted_tau_coarse",
        "13-shifted_tau_coarse", "06-tau_via_reduced_laplacian", "13-weighted_tau"])
def test_moved_cross_check_fails_on_a_wrong_route(monkeypatch, check, route, wrong):
    assert check(**SMALL).passed
    monkeypatch.setattr(verification, route, wrong)
    assert not check(**SMALL).passed
