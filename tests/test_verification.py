"""The cross-checks between two routes to the same quantity run in the
acceptance gate, not in the library: each must fail its criterion when one of
the routes returns a wrong value. Criteria run here at a reduced scale."""

import dataclasses

import pytest
from reference_kernels import spectrum_theorem_holds_reference

from simtree import shifted, verification
from simtree.complexes import SimplicialComplex
from simtree.corpus import enumerate_shifted_complexes
from simtree.errors import ExactnessError
from simtree.fixtures import (
    bipyramid,
    complete_bipartite,
    complete_graph,
    rp2_six_vertices,
    simplex_skeleton,
)
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


def test_boundary_composition_sees_one_flipped_sign(monkeypatch):
    # criterion 13's complexes compose to zero; with the first sign of bd_dim
    # flipped, the first column of bd_dim no longer maps to zero
    fixtures = [bipyramid(), rp2_six_vertices(), simplex_skeleton(5, 2),
                complete_graph(5), complete_bipartite(3, 3)]
    complexes = fixtures + list(enumerate_shifted_complexes(6, 2)[::7])
    assert all(verification._boundary_squares_to_zero(cx) for cx in complexes)
    boundary = SimplicialComplex._boundary

    def flipped(cx, k):
        bd = boundary(cx, k)
        if k != cx.dim:
            return bd
        (i, s), *rest = bd.supports[0]
        return dataclasses.replace(bd, supports=(((i, -s), *rest),) + bd.supports[1:])

    monkeypatch.setattr(SimplicialComplex, "_boundary", flipped)
    fresh = [SimplicialComplex(cx.all_faces()) for cx in complexes if cx.dim >= 1]
    assert len(fresh) > len(fixtures)
    assert not any(verification._boundary_squares_to_zero(cx) for cx in fresh)


def test_spectrum_check_matches_the_fraction_reference_on_the_corpus():
    # the integer comparison and the Fraction chain give the same verdict at
    # the same draws on every (complex, dimension) pair of criterion 8
    pairs = 0
    for idx, cx in enumerate(enumerate_shifted_complexes(6, 2)):
        for i in range(cx.dim + 1):
            verdicts = (verification.spectrum_theorem_holds(cx, i, 2, 20080814, idx),
                        spectrum_theorem_holds_reference(cx, i, 2, 20080814, idx))
            assert verdicts == (True, True)
            pairs += 1
    assert pairs == 1257


def _shift_bumped(spec):
    for k, z in enumerate(spec.zpolys):
        bumped = dataclasses.replace(z, shift=z.shift + 1)
        try:
            bumped.poly
        except ExactnessError:  # a denominator raised past the cutoff
            continue
        zpolys = spec.zpolys[:k] + (bumped,) + spec.zpolys[k + 1:]
        return dataclasses.replace(spec, zpolys=zpolys)
    return None


@pytest.mark.parametrize("wrong", [
    lambda spec: shifted.SpectrumMultiset(spec.zpolys[1:], spec.zero_multiplicity + 1),
    _shift_bumped,
    lambda spec: dataclasses.replace(spec, zero_multiplicity=spec.zero_multiplicity + 1),
    lambda spec: dataclasses.replace(spec, zero_multiplicity=spec.zero_multiplicity - 1)
    if spec.zero_multiplicity else None,
], ids=["one-z-dropped", "one-shift-bumped", "zero-multiplicity-plus-one",
        "zero-multiplicity-minus-one"])
def test_spectrum_check_fails_on_a_wrong_spectrum(monkeypatch, wrong):
    corpus = enumerate_shifted_complexes(5, 2)
    cases = [(idx, cx, i, wrong(shifted.shifted_spectrum(cx, i)))
             for idx, cx in enumerate(corpus) for i in range(cx.dim + 1)]
    cases = [case for case in cases if case[3] is not None]
    assert len(cases) > 100
    spectra = {(id(cx), i): spec for _, cx, i, spec in cases}
    monkeypatch.setattr(verification, "shifted_spectrum",
                        lambda cx, i: spectra[id(cx), i])
    for idx, cx, i, _ in cases:
        verdicts = (verification.spectrum_theorem_holds(cx, i, 2, 20080814, idx),
                    spectrum_theorem_holds_reference(cx, i, 2, 20080814, idx))
        assert verdicts == (False, False)
