"""The cross-checks between two routes to the same quantity run in the
acceptance gate, not in the library: each must fail its criterion when one of
the routes returns a wrong value. Criteria run here at a reduced scale."""

import dataclasses

import pytest

from simtree import shifted, verification
from simtree.laurent import LaurentPoly

SMALL = dict(max_vertices=4, n_subs=2, witness_max=3, witness_extended=3, threshold_max=5)


def _one(*args, **kwargs):
    return LaurentPoly.one()


def _one_z_dropped(cx, i):
    spec = shifted.shifted_spectrum(cx, i)
    if not spec.zpolys:
        return spec
    return shifted.SpectrumMultiset(spec.zpolys[1:], spec.zero_multiplicity + 1)


def _first_weight_squared(cx, i):
    fac = shifted.fine_laplacian_factors(cx, i)
    if not fac.col_keys:
        return fac
    wrong = tuple((vid, 2 * e) for vid, e in fac.col_keys[0])
    return dataclasses.replace(fac, col_keys=(wrong,) + fac.col_keys[1:])


@pytest.mark.parametrize("check, route, wrong", [
    (verification.check_11_hearing, "lsg_recursive", lambda cx, i: []),
    (verification.check_12_threshold_ferrers, "shifted_tau_fine", _one),
    (verification.check_06_weighted_bipyramid, "shifted_tau_coarse", _one),
    (verification.check_13_property_suites, "shifted_tau_coarse", _one),
    (verification.check_06_weighted_bipyramid, "tau_via_reduced_laplacian", lambda *a: 16),
    (verification.check_13_property_suites, "weighted_tau", _one),
    (verification.check_08_spectrum_theorem, "shifted_spectrum", _one_z_dropped),
    (verification.check_08_spectrum_theorem, "fine_laplacian_factors", _first_weight_squared),
    (verification.check_02_bipyramid_pi_ladder, "char_poly", lambda M: [0] * len(M) + [1]),
], ids=["11-lsg_recursive", "12-shifted_tau_fine", "06-shifted_tau_coarse",
        "13-shifted_tau_coarse", "06-tau_via_reduced_laplacian", "13-weighted_tau",
        "08-shifted_spectrum", "08-fine_laplacian_factors", "02-char_poly"])
def test_moved_cross_check_fails_on_a_wrong_route(monkeypatch, check, route, wrong):
    assert check(**SMALL).passed
    monkeypatch.setattr(verification, route, wrong)
    assert not check(**SMALL).passed
