import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from helpers import constant_value, x_coarse

from simtree.errors import ExactnessError, InputError, ResourceLimitError
from simtree.weighted import SymbolicMatrix, symbolic_det
from simtree import laurent
from simtree.laurent import (
    FINE,
    LaurentPoly,
    X_coarse,
    X_fine,
    canonical_string,
    monomial_for_face,
    poly_sum,
    poly_to_json_dict,
    product,
    product_sum,
    x_facet,
)
from reference_kernels import (
    FractionLaurentPoly,
    canonical_string_reference,
    graded_lex_keys,
    poly_div_exact,
    poly_pow,
    poly_to_json_dict_reference,
    raise_op,
)

coarse_polys = st.lists(
    st.tuples(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)),
                       max_size=2),
              st.integers(-5, 5)),
    max_size=4,
).map(lambda terms: poly_sum(
    LaurentPoly.monomial({("c", j): e for j, e in exps}, c) for exps, c in terms))


def test_product_difference_of_squares():
    a = X_coarse(1) + X_coarse(2)
    b = X_coarse(1) - X_coarse(2)
    assert a * b == X_coarse(1, 2) - X_coarse(2, 2)


def test_multiplicative_identity():
    a = X_coarse(1) + 3 * X_coarse(2)
    assert a * LaurentPoly.one() == a


def test_monomial_quotient():
    assert (X_fine(1, 1) * X_fine(2, 3)).div_exact(X_fine(1, 1)) == X_fine(2, 3)


def test_inexact_division_raises():
    with pytest.raises(ExactnessError):
        poly_div_exact(X_coarse(1) + X_coarse(2), X_coarse(1) + X_coarse(3))
    with pytest.raises(ExactnessError):
        X_coarse(1).div_exact(LaurentPoly.zero())
    with pytest.raises(ExactnessError):
        poly_div_exact(X_coarse(1), LaurentPoly.zero())
    with pytest.raises(ExactnessError):  # an int coefficient leaves a remainder
        (3 * X_coarse(1)).div_exact(2 * X_coarse(1))
    assert (6 * X_coarse(1, 2)).div_exact(-2 * X_coarse(1)) == -3 * X_coarse(1)


def test_division_by_a_polynomial_is_refused():
    a = X_coarse(1, 2) - X_coarse(2, 2)
    with pytest.raises(ExactnessError, match="not a monomial"):
        a.div_exact(X_coarse(1) - X_coarse(2))


def test_exact_polynomial_division():
    a = X_coarse(1, 2) - X_coarse(2, 2)
    b = X_coarse(1) - X_coarse(2)
    assert poly_div_exact(a, b) == X_coarse(1) + X_coarse(2)


def test_mixed_kinds_rejected():
    with pytest.raises(InputError):
        X_coarse(1) * X_fine(1, 1)


def test_monomial_for_face():
    assert monomial_for_face((1, 3, 5), "fine") == X_fine(1, 1) * X_fine(2, 3) * X_fine(3, 5)
    assert monomial_for_face((), "fine") == LaurentPoly.one()
    assert monomial_for_face((1, 3, 5), "coarse") == X_coarse(1) * X_coarse(3) * X_coarse(5)
    # multisets repeat positions (fine) / accumulate exponents (coarse)
    assert monomial_for_face((2, 2), "fine") == X_fine(1, 2) * X_fine(2, 2)
    assert monomial_for_face((2, 2), "coarse") == X_coarse(2, 2)
    # facet: one variable per face, in its given order
    assert monomial_for_face((1, 3), "facet") == x_facet((1, 3), 2)
    assert monomial_for_face((1, 3), "facet", squared=False) == x_facet((1, 3))
    with pytest.raises(InputError, match="^unknown weighting scheme 'bogus'$"):
        monomial_for_face((1, 3), "bogus")


def test_raise_examples():
    assert raise_op(X_fine(1, 3), 1, 2) == X_fine(2, 3)
    assert raise_op(X_fine(3, 3), 1, 2).is_zero()
    p = X_fine(1, 1) + X_fine(2, 5)
    assert raise_op(p, 0, 2) == p
    with pytest.raises(ExactnessError):
        raise_op(LaurentPoly.one().div_exact(X_fine(3, 3)), 1, 2)


def test_raise_is_multiplicative_below_cutoff():
    rng = random.Random(20080814)
    for _ in range(40):
        a = X_fine(rng.randint(1, 2), rng.randint(1, 4)) + rng.randint(1, 3)
        b = X_fine(rng.randint(1, 2), rng.randint(1, 4)) - rng.randint(1, 3)
        lifted = raise_op(a * b, 1, 9)
        assert lifted == raise_op(a, 1, 9) * raise_op(b, 1, 9)


def _xs(S, squared=True):
    return monomial_for_face(tuple(sorted(S)), "fine", squared=squared)


def test_raising_identities():
    # raise^a X_{1,p} * raise^{a+1} X_{S u j} == raise^a X_{S~ u j}
    # raise^a X_{S~} / raise^{a+1} X_S == X_{a+1,p}
    rng = random.Random(20080814)
    for _ in range(50):
        p = rng.randint(1, 3)
        S = sorted(rng.choices(range(p, 7), k=rng.randint(0, 3)))
        j = rng.randint(p, 7)
        a = rng.randint(0, 2)
        cutoff = 12
        s_tilde = sorted(S + [p])
        lhs = raise_op(X_fine(1, p), a, cutoff) * raise_op(_xs(S + [j]), a + 1, cutoff)
        rhs = raise_op(_xs(s_tilde + [j]), a, cutoff)
        assert lhs == rhs
        lhs2 = raise_op(_xs(s_tilde), a, cutoff).div_exact(raise_op(_xs(S), a + 1, cutoff))
        assert lhs2 == X_fine(a + 1, p)


def test_specialize_examples():
    p = X_fine(1, 2).div_exact(X_fine(1, 2))
    assert p == LaurentPoly.one()
    q = X_coarse(1) * X_coarse(2) + X_coarse(1, 2)
    assert q.evaluate({("c", 1): 2, ("c", 2): 3}) == Fraction(4 * 9 + 16)
    partial = q.substitute({("c", 1): 1})
    assert partial == X_coarse(2) + 1
    with pytest.raises(ExactnessError):
        LaurentPoly.one().div_exact(X_coarse(1)).evaluate({("c", 1): 0})


_values = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(coarse_polys, st.lists(_values, min_size=3, max_size=3),
       st.sets(st.integers(1, 3), min_size=1))
def test_evaluate_matches_substitute(p, values, unassigned):
    full = {("c", j): v for j, v in enumerate(values, start=1)}
    try:
        expected = constant_value(p.substitute(full))
    except ExactnessError:  # zero at a negative exponent
        with pytest.raises(ExactnessError):
            p.evaluate(full)
    else:
        assert p.evaluate(full) == expected
    partial = {vid: v or 1 for vid, v in full.items() if vid[1] not in unassigned}
    if set(p.variables()) - set(partial):
        with pytest.raises(InputError):
            p.evaluate(partial)


def test_coarse_collapse():
    fine = monomial_for_face((1, 3, 5), "fine")
    assert fine.coarse_collapse() == monomial_for_face((1, 3, 5), "coarse")


def test_all_ones():
    assert (X_coarse(1) + 2 * X_coarse(2)).all_ones() == 3
    assert LaurentPoly.zero().all_ones() == 0
    assert (X_coarse(1).div_exact(X_coarse(2)) - 4).all_ones() == -3


def test_canonical_string_examples():
    assert canonical_string(LaurentPoly.zero()) == "0"
    assert canonical_string(X_coarse(2) + X_coarse(1)) == "X[1] + X[2]"
    p = X_fine(2, 3).div_exact(X_fine(1, 1))
    assert canonical_string(p) == "X[1,1]^-1 * X[2,3]"
    assert canonical_string(LaurentPoly.constant(Fraction(3, 2))) == "3/2"
    assert canonical_string(x_coarse(1) * x_coarse(2)) == "x[1] * x[2]"
    assert canonical_string(X_coarse(1) - X_coarse(2)) == "X[1] - X[2]"


def test_json_form():
    p = Fraction(3, 2) * X_fine(1, 2) * X_fine(2, 3)
    d = poly_to_json_dict(p)
    assert d["vars"] == "X" and d["kind"] == "f"
    assert d["terms"] == [{"coeff": "3/2", "exps": [[1, 2, 1], [2, 3, 1]]}]


@settings(max_examples=60, deadline=None)
@given(coarse_polys, coarse_polys, coarse_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a
    assert a + LaurentPoly.zero() == a
    assert a - a == LaurentPoly.zero()


def test_poly_sum_matches_repeated_add():
    # + runs on poly_sum, so the repeated sum runs in the Fraction reference
    terms = [X_coarse(1), 2 * X_coarse(2), X_coarse(1) * X_coarse(2), 5,
             Fraction(1, 2) * X_coarse(1), Fraction(-1, 2)]
    acc = FractionLaurentPoly()
    for t in terms:
        acc = acc + FractionLaurentPoly(t.terms if isinstance(t, LaurentPoly) else {(): t})
    _same(poly_sum(terms), acc)


def test_product_sum_matches_products():
    factors = [X_coarse(1), x_coarse(2, -3), X_coarse(1, 4), LaurentPoly.one(), x_coarse(3)]
    rows = [([0, 1], 2), ([2, 2, 1], 5), ([], 7), ([3, 0], -2), ([1, 1, 1, 1], 1),
            ([0], 3), ([4, 1], 0)]
    expected = poly_sum(c * prod((factors[i] for i in idx), start=LaurentPoly.one())
                        for idx, c in rows)
    got = product_sum(factors, rows)
    assert got == expected and got.kind == "c"
    assert all(type(c) is int for c in got.terms.values())
    assert product_sum(factors, []) == LaurentPoly.zero()
    for bad in ([X_coarse(1) + 1], [2 * X_coarse(1)], [X_coarse(1), X_fine(1, 1)]):
        with pytest.raises(InputError):
            product_sum(bad, [([0], 1)])


def test_pow():
    e = X_coarse(1) + 1
    assert poly_pow(e, 0) == LaurentPoly.one()
    assert poly_pow(e, 3) == X_coarse(1, 3) + 3 * X_coarse(1, 2) + 3 * X_coarse(1) + 1
    assert poly_pow(X_coarse(1), -1) == LaurentPoly.one().div_exact(X_coarse(1))
    with pytest.raises(TypeError):  # no ** on polynomials; poly_pow is the test route
        X_coarse(1) ** -1


def test_integral_fractions_are_stored_as_ints():
    p = LaurentPoly({(("c", 1),): Fraction(4, 2), (): Fraction(3, 2)})
    assert [type(c) for c in p.terms.values()] == [int, Fraction]
    assert type(constant_value(LaurentPoly.constant(Fraction(6, 3)))) is int
    assert canonical_string(LaurentPoly.constant(Fraction(3, 2))) == "3/2"



def test_a_constant_hashes_as_its_coefficient():
    # == compares a constant with its coefficient, so a set or a dict finds
    # either one by the other; zero hashes as 0
    for q in (3, Fraction(3, 7), 0):
        p = LaurentPoly.constant(q)
        assert p == q and hash(p) == hash(q)
        assert {q: "a"}.get(p) == "a" and {p: "a"}.get(q) == "a"
        assert p in {q} and q in {p} and len({p, q}) == 1
    assert hash(LaurentPoly.zero()) == 0 and LaurentPoly.zero() in {0}
    assert X_coarse(1) not in {1} and {X_coarse(1): "a"}.get(X_coarse(1)) == "a"


def test_the_constructor_sums_the_exponents_of_a_repeated_variable():
    c1, c2 = ("c", 1), ("c", 2)
    doubled = LaurentPoly({((c1, 1), (c1, 1)): 1})
    assert doubled == LaurentPoly.monomial({c1: 2}) and doubled.terms == {((c1, 2),): 1}
    assert canonical_string(doubled) == "X[1]"
    cancelled = LaurentPoly({((c1, 1), (c1, -1)): 1})
    assert cancelled == 1 and cancelled.terms == {(): 1} and cancelled.kind is None
    # two keys that name the same monomial add their coefficients
    p = LaurentPoly({((c1, 1), (c2, 1), (c1, 1)): 2, ((c1, 2), (c2, 1)): 3})
    assert p == LaurentPoly.monomial({c1: 2, c2: 1}, 5)


# -- differential test against the Fraction arithmetic ---------------------

_POOL = {"f": [("f", i, j) for i in (1, 2, 3) for j in (1, 2, 3)],
         "c": [("c", j) for j in (1, 2, 3, 4)],
         "e": [("e", F) for F in ((1, 2), (1, 3), (2, 3, 4))]}
_coeffs = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)


@st.composite
def laurent_terms(draw, kind=None):
    """A raw terms dict: keys unsorted, with zero exponents, possibly
    colliding after normalisation; one variable kind, or rarely several."""
    kind = kind or draw(st.sampled_from("ffcce") | st.just("mixed"))
    pool = sum(_POOL.values(), []) if kind == "mixed" else _POOL[kind]
    keys = st.dictionaries(st.sampled_from(pool), st.integers(-3, 3), max_size=4).map(
        lambda exps: tuple(exps.items()))
    return draw(st.dictionaries(keys, _coeffs, max_size=5))


def _run(cls, ta, tb):
    """The ring operations on cls(ta), cls(tb), or the error they raise."""
    try:
        a, b = cls(ta), cls(tb)
        return [a, a + b, b + a, a * b, b * a, -a, a + (-b), (a * b) * a]
    except InputError as exc:
        return str(exc)


def _same(new, ref):
    assert new.terms == ref.terms
    assert new.kind == ref.kind
    assert canonical_string(new) == canonical_string_reference(ref)
    assert poly_to_json_dict(new) == poly_to_json_dict_reference(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_engine_matches_fraction_reference(data):
    kind = data.draw(st.sampled_from("fce"))
    ta = data.draw(laurent_terms(kind=data.draw(st.sampled_from([kind, None]))))
    tb = data.draw(laurent_terms(kind=data.draw(st.sampled_from([kind, None]))))
    new, ref = _run(LaurentPoly, ta, tb), _run(FractionLaurentPoly, ta, tb)
    assert type(new) is type(ref)
    if isinstance(ref, str):  # mixed kinds: the same InputError
        assert new == ref
        return
    for n, r in zip(new, ref):
        _same(n, r)
    dkey = data.draw(st.dictionaries(st.sampled_from(_POOL[kind]), st.integers(-3, 3),
                                     max_size=3))
    dc = data.draw(st.sampled_from([1, -1, 2, 3, Fraction(1, 2)]))
    divisor = {tuple(dkey.items()): dc}
    try:
        r = FractionLaurentPoly(ta).div_exact(FractionLaurentPoly(divisor))
    except InputError as exc:  # a divisor of another kind than the dividend
        with pytest.raises(InputError, match=str(exc)):
            LaurentPoly(ta).div_exact(LaurentPoly(divisor))
        return
    if type(dc) is int and any(type(c) is int and c % dc
                               for c in LaurentPoly(ta).terms.values()):
        with pytest.raises(ExactnessError):
            LaurentPoly(ta).div_exact(LaurentPoly(divisor))
    else:
        _same(LaurentPoly(ta).div_exact(LaurentPoly(divisor)), r)


def test_engine_results_keep_int_coefficients():
    a = poly_sum([X_coarse(1), -2 * X_coarse(2), x_coarse(3, -1), 5])
    b = X_coarse(1) - 3
    for p in (a + b, a * b, -a, a - b, (a * b).div_exact(-X_coarse(2)), poly_pow(b, 3),
              a.coarse_collapse(), poly_sum([a, b, 2])):
        assert all(type(c) is int for c in p.terms.values())
    assert type(a.all_ones()) is int


# -- every exit that builds coefficients stores an integral one as an int ----

_ratios = st.sampled_from([1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                           Fraction(-3, 2), Fraction(1, 3), Fraction(2, 3)])
_units = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3)])  # divide every coefficient


def _ratio_polys(keys):
    """Polynomials on a few monomials with coefficients that often sum or
    multiply to an integer: 1/2 + 1/2, 2 * 1/2, 3/2 * 2/3."""
    return st.dictionaries(st.sampled_from(keys), _ratios, max_size=3).map(LaurentPoly)


_C = [("c", 1), ("c", 2)]
_polys = _ratio_polys([(), ((_C[0], 1),), ((_C[1], 1),), ((_C[0], 1), (_C[1], -1))])
# x[1,j] and x[2,j] both collapse to x[j]
_fine_polys = _ratio_polys([((("f", i, j), 1),) for i in (1, 2) for j in (1, 2)])


def _det(draw):
    n = draw(st.integers(1, 4))
    rows = tuple(range(n))
    return symbolic_det(SymbolicMatrix(rows, rows, tuple(
        tuple(draw(_polys) for _ in rows) for _ in rows)))


def _product_sum(draw):
    factors = [LaurentPoly.monomial(draw(st.dictionaries(st.sampled_from(_C),
                                                         st.integers(-1, 1))))
               for _ in range(3)]
    rows = st.tuples(st.lists(st.integers(0, 2), max_size=3), _ratios)
    return product_sum(factors, draw(st.lists(rows, max_size=4)))


_EXITS = {
    "a + b": lambda draw: draw(_polys) + draw(_polys),
    "a - b": lambda draw: draw(_polys) - draw(_polys),
    "3 - a": lambda draw: 3 - draw(_polys),
    "a * b": lambda draw: draw(_polys) * draw(_polys),
    "a * int": lambda draw: draw(_polys) * draw(st.integers(-3, 3)),
    "a * Fraction": lambda draw: draw(_polys) * draw(_ratios.map(Fraction)),
    "product": lambda draw: product(draw(st.lists(_polys, max_size=3))),
    "poly_sum": lambda draw: poly_sum(draw(st.lists(_polys | _ratios, max_size=4))),
    "product_sum": _product_sum,
    "div_exact": lambda draw: draw(_polys).div_exact(LaurentPoly.monomial(
        draw(st.dictionaries(st.sampled_from(_C), st.integers(-1, 1))), draw(_units))),
    "coarse_collapse": lambda draw: draw(_fine_polys).coarse_collapse(),
    "symbolic_det": _det,
}


@pytest.mark.parametrize("operation", sorted(_EXITS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_exit_stores_integral_coefficients_as_ints(operation, data):
    result = _EXITS[operation](data.draw)
    assert all(type(c) is int or c.denominator != 1 for c in result.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_chained_products(data):
    # product in one packed layout equals * chained from one, and the Fraction
    # reference; factors of another kind raise the text that * raises
    kind = data.draw(st.sampled_from("fce"))
    factors = [LaurentPoly(data.draw(laurent_terms(kind=k))) for k in data.draw(
        st.lists(st.sampled_from([kind] * 6 + list("fce")), max_size=4))]
    if data.draw(st.integers(0, 3)) == 0:
        factors.insert(data.draw(st.integers(0, len(factors))), LaurentPoly.zero())
    try:
        chained = LaurentPoly.one()
        for f in factors:
            chained = chained * f
    except InputError as exc:
        chained = str(exc)
    if len({f.kind for f in factors} - {None}) > 1:
        with pytest.raises(InputError, match="^polynomial mixes variable kinds$"):
            product(factors)
        assert not isinstance(chained, str) or chained == "polynomial mixes variable kinds"
        return
    ref = FractionLaurentPoly({(): 1})
    for f in factors:
        ref = ref * FractionLaurentPoly(f.terms)
    got = product(factors)
    assert got == chained and got.kind == chained.kind
    _same(got, ref)


def test_product_refuses_exponent_ranges_past_64_bits():
    assert product([]) == LaurentPoly.one()
    big = x_coarse(1, 2 ** 62)
    # field range 2^63 + 2^62 fits 64 bits, and the negative offset is exact
    edge = [big, big + x_coarse(1, -(2 ** 62))]
    assert product(edge) == x_coarse(1, 2 ** 63) + 1
    with pytest.raises(ResourceLimitError, match="64 bits"):
        product(edge + [big])
    with pytest.raises(ResourceLimitError, match="64 bits"):
        x_coarse(1, 2 ** 63) * x_coarse(1, 2 ** 63)


def test_product_budget_counts_every_step(monkeypatch):
    # one step multiplies 1 x 2 term pairs, the next 2 x 3: 8 in all
    a = x_coarse(1, 1) + 1
    b = x_coarse(2, 1) + x_coarse(2, 2) + 1
    monkeypatch.setattr(laurent, "PRODUCT_PAIR_CAP", 8)
    assert product([a, b]) == a * b
    monkeypatch.setattr(laurent, "PRODUCT_PAIR_CAP", 7)
    with pytest.raises(ResourceLimitError,
                       match=r"more than 7 term pairs \(the product budget\)$"):
        product([a, b])
    with pytest.raises(ResourceLimitError, match="the product budget"):
        (a * a) * (b * b)


# -- the packed exits store their terms in canonical_string's order --------


# one variable kind each, negative exponents and Fraction coefficients; built
# once, as hypothesis validates a strategy on its first draw
_EXPS = {kind: st.dictionaries(st.sampled_from(pool), st.integers(-3, 3), max_size=4)
         for kind, pool in _POOL.items()}


def _polys_of_each_kind(max_terms):
    return {kind: st.dictionaries(exps.map(lambda e: tuple(e.items())), _coeffs,
                                  max_size=max_terms).map(LaurentPoly)
            for kind, exps in _EXPS.items()}


_FACTORS, _ENTRIES = _polys_of_each_kind(4), _polys_of_each_kind(2)


def _packed_product(draw, kind):
    return product(draw(st.lists(_FACTORS[kind], min_size=1, max_size=4)))


def _packed_product_sum(draw, kind):
    factors = draw(st.lists(_EXPS[kind].map(LaurentPoly.monomial), min_size=1, max_size=4))
    rows = st.tuples(st.lists(st.integers(0, len(factors) - 1), min_size=1, max_size=4),
                     _coeffs)
    return product_sum(factors, draw(st.lists(rows, max_size=8)))


def _packed_det(draw, kind):
    n = draw(st.integers(1, 4))
    rows = tuple(range(n))
    entries = iter(draw(st.lists(_ENTRIES[kind], min_size=n * n, max_size=n * n)))
    return symbolic_det(SymbolicMatrix(rows, rows, tuple(
        tuple(next(entries) for _ in rows) for _ in rows)))


@pytest.mark.parametrize("exit_", [_packed_product, _packed_product_sum, _packed_det],
                         ids=["product", "product_sum", "symbolic_det"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_exits_store_terms_in_render_order(exit_, data):
    # canonical_string renders these in stored order; any other order would
    # print differently from the same terms in a fresh polynomial
    kind = data.draw(st.sampled_from("fce"))
    p = exit_(data.draw, kind)
    scalar = data.draw(st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3))
    for q in (p, -p, p * scalar, scalar * p):
        assert list(q.terms) == graded_lex_keys(q)
        assert canonical_string(q) == canonical_string(LaurentPoly(q.terms))


@pytest.mark.parametrize("operand", [1.5, "a", None], ids=repr)
@pytest.mark.parametrize("operation", [
    lambda p, x: p + x, lambda p, x: x + p, lambda p, x: p - x, lambda p, x: x - p,
    lambda p, x: p * x, lambda p, x: x * p, lambda p, x: p.div_exact(x),
], ids=["p + x", "x + p", "p - x", "x - p", "p * x", "x * p", "p.div_exact(x)"])
def test_foreign_operands_raise_type_error(operation, operand):
    with pytest.raises(TypeError):
        operation(X_coarse(1), operand)
