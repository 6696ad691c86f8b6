"""Sparse multivariate Laurent polynomials with integer coefficients.

Variable families:
  ('f', i, j)  fine variable x[i,j]   (position i within a face, vertex j)
  ('c', j)     coarse variable x[j]   (one per vertex)
  ('e', F)     facet variable x{F}    (one per facet F, facet-generic weighting)

A polynomial maps monomial keys, sorted tuples of (variable, nonzero
exponent) pairs built once, to nonzero coefficients; the ring operations
combine keys without re-sorting them. _exact, run at every exit that builds
coefficients (the constructor, poly_sum and so + and -, scalar *, product,
product_sum, weighted.symbolic_det), stores an integral one as an int. _merge,
the one key merge, sums a variable's exponents and drops zeros for the
constructor, key_quotient and coarse_collapse. evaluate returns a Fraction.

A chain of products runs in one packed layout (_packing): each key becomes one
int, the bounds are the factors' exponent ranges summed, each factor is
packed once, and only the result is unpacked. The layout is graded: the
total degree on top, then a fixed-width field per variable from the first
to the last, so packed ints compare as canonical_string orders monomials.
product, and through it * and div_exact, is one such chain;
weighted.symbolic_det is another, and product_sum a sum of such keys. These
three packed exits sort their ints once and store their terms in render
order (_from_packed), which negation and scalar * keep, so canonical_string
prints them as stored; it sorts every other polynomial. The ring operations
return NotImplemented for an operand that is not a LaurentPoly, an int or a
Fraction.

Exponents are stored in x-units: the squared variable X = x^2 is exponent 2.
A polynomial whose exponents are all even renders and serializes in X-form
(exponents halved); anything else renders in x-form. A polynomial never mixes
variable kinds.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem
from struct import Struct

from .errors import ExactnessError, InputError, ResourceLimitError

FINE = "f"
COARSE = "c"
FACET = "e"

PRODUCT_PAIR_CAP = 1 << 21  # term pairs one product call may multiply


def _join_kinds(a, b):
    """The kind of a result built from operands of kinds a and b."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    raise InputError("polynomial mixes variable kinds")


def _exact(c):
    """An int or Fraction coefficient, an integral value always as an int."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _merge(pairs) -> tuple:
    """The canonical key of (variable, exponent) pairs: a variable's exponents
    summed, zeros dropped, sorted."""
    exps = {}
    for vid, e in pairs:
        exps[vid] = exps.get(vid, 0) + e
    return tuple(sorted((vid, e) for vid, e in exps.items() if e))


def _poly(terms: dict, kind) -> "LaurentPoly":
    """A polynomial from canonical keys and nonzero coefficients, unchecked.
    kind is that of the operands; a result left with no variable has none."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    p.kind = kind if kind is not None and any(terms) else None
    p._ordered = False
    return p


def _from_packed(acc: dict, unpack, kind) -> "LaurentPoly":
    """The polynomial of packed keys and their nonzero coefficients. The
    packed ints are sorted once, descending, and unpacked in that order, so
    the terms are stored in canonical_string's order and marked so."""
    p = _poly({unpack(k): _exact(acc[k]) for k in sorted(acc, reverse=True)}, kind)
    p._ordered = True
    return p


class _Pairs(dict):
    """field -> (vid, field + lo), or None at exponent 0, built on first use."""

    def __init__(self, vid, lo):
        self.vid, self.lo = vid, lo

    def __missing__(self, field):
        e = field + self.lo
        pair = self[field] = (self.vid, e) if e else None
        return pair


def _bounds(keys) -> dict:
    """vid -> (lowest, highest) exponent over the keys, counting 0."""
    out = {}
    for key in keys:
        for vid, e in key:
            lo, hi = out.get(vid, (0, 0))
            if e < lo:
                out[vid] = (e, hi)
            elif e > hi:
                out[vid] = (lo, e)
    return out


def _packing(groups):
    """(kind, pack, unpack, zero) for sums of packed keys that take one key
    from each group of polynomials. The bounds are the groups' exponent
    ranges summed; each range counts 0, so every partial sum fits as well.
    From its most significant end, a packed int holds the total degree, then
    one field per variable in key order: the exponent minus its lowest (the
    degree minus the lowests' sum). A variable's field is one to eight bytes
    wide; the degree field takes the bytes its own range needs. So adding
    packed keys adds exponent vectors, packed results compare as
    canonical_string's graded-lex order does, and unpacking yields a sorted
    key. pack leaves the lowest exponents out: add zero, the packed zero
    vector, once per sum."""
    kind = None
    bounds = {}
    for group in groups:
        for p in group:
            kind = _join_kinds(kind, p.kind)
        for vid, (lo, hi) in _bounds(k for p in group for k in p.terms).items():
            la, ha = bounds.get(vid, (0, 0))
            bounds[vid] = (la + lo, ha + hi)
    vids = sorted(bounds)
    ranges = [hi - lo for lo, hi in bounds.values()]
    width = next((w for w in (1, 2, 4, 8) if max(ranges, default=0).bit_length() <= 8 * w), None)
    if width is None:
        raise ResourceLimitError("exponent range exceeds 64 bits")
    degree = 1 << 8 * width * len(vids)
    weight = {vid: degree + (1 << 8 * width * i) for i, vid in enumerate(reversed(vids))}
    pad = (sum(ranges).bit_length() + 7) // 8
    fields = Struct(f">{pad}x{len(vids)}{'BHIQ'[width.bit_length() - 1]}").unpack
    tables = [_Pairs(vid, bounds[vid][0]) for vid in vids]
    nbytes = pad + width * len(vids)

    def pack(key) -> int:
        return sum([e * weight[vid] for vid, e in key])

    def unpack(x: int) -> tuple:
        return tuple(filter(None, map(getitem, tables, fields(x.to_bytes(nbytes, "big")))))

    return kind, pack, unpack, -sum(lo * weight[vid] for vid, (lo, _) in bounds.items())


def product(factors) -> "LaurentPoly":
    """The product of the polynomials in one packed layout: each factor is
    packed once, the partial products stay packed, and only the result is
    unpacked. The empty product is 1. Raises ResourceLimitError before the
    term pairs multiplied would pass PRODUCT_PAIR_CAP."""
    factors = list(factors)
    kind, pack, unpack, zero = _packing([f] for f in factors)
    acc = {zero: 1}
    pairs = 0
    for f in factors:
        pairs += len(acc) * len(f.terms)
        if pairs > PRODUCT_PAIR_CAP:
            raise ResourceLimitError(f"the Laurent product would multiply more than "
                                     f"{PRODUCT_PAIR_CAP} term pairs (the product budget)")
        packed = [(pack(k), c) for k, c in f.terms.items()]
        out = {}
        get = out.get
        for ka, ca in acc.items():
            for kb, cb in packed:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        acc = {k: c for k, c in out.items() if c}
    return _from_packed(acc, unpack, kind)


def product_sum(factors: list, rows) -> "LaurentPoly":
    """The sum over rows (indices, c) of c times the product of the factors
    at the indices, for monomial factors with coefficient 1: one packed sum
    of keys per row."""
    if any(list(f.terms.values()) != [1] for f in factors):
        raise InputError("product_sum takes monomials with coefficient 1")
    rows = list(rows)
    longest = max((len(idx) for idx, _ in rows), default=0)
    kind, pack, unpack, zero = _packing([factors] * max(longest, 1))  # every factor, used or not
    packed = [pack(next(iter(f.terms))) for f in factors]
    out = {}
    for idx, c in rows:
        k = zero + sum([packed[i] for i in idx])
        out[k] = out.get(k, 0) + c
    return _from_packed({k: c for k, c in out.items() if c}, unpack, kind)


class LaurentPoly:
    """Immutable sparse Laurent polynomial: {canonical key: nonzero coefficient}."""

    __slots__ = ("terms", "kind", "_ordered")  # _ordered: terms in canonical_string's order

    def __init__(self, terms=None):
        norm = {}
        for key, coeff in (terms or {}).items():
            key = _merge(key)
            norm[key] = norm.get(key, 0) + _exact(coeff)
        self.terms = {k: _exact(c) for k, c in norm.items() if c}
        kinds = {vid[0] for key in self.terms for vid, _ in key}
        if len(kinds) > 1:
            raise InputError("polynomial mixes variable kinds")
        self.kind = kinds.pop() if kinds else None
        self._ordered = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, q):
        return cls({(): q})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def monomial(cls, exps: dict, coeff=1):
        return cls({tuple(sorted(exps.items())): coeff})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self):
        return sorted({vid for key in self.terms for vid, _ in key})

    def all_exponents_even(self) -> bool:
        return all(e % 2 == 0 for key in self.terms for _, e in key)

    def has_nonnegative_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its coefficient, as == compares it with one
        return hash(frozenset(self.terms.items()) if any(self.terms) else self.terms.get((), 0))

    def __repr__(self):
        return f"LaurentPoly({canonical_string(self)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return poly_sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        p = _poly({k: -c for k, c in self.terms.items()}, self.kind)
        p._ordered = self._ordered
        return p

    def __sub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return poly_sum([self, -other])

    def __rsub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return poly_sum([other, -self])

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return product([self, other])
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p = _poly({k: _exact(c * other) for k, c in self.terms.items()} if other else {},
                  self.kind)
        p._ordered = self._ordered
        return p

    __rmul__ = __mul__

    def div_exact(self, other) -> "LaurentPoly":
        """Exact division by a monomial, a unit of the Laurent ring up to its
        coefficient; an int coefficient that leaves a remainder, or a divisor
        with more than one term, raises ExactnessError."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot divide a LaurentPoly by {type(other).__name__}")
        if other.is_zero():
            raise ExactnessError("division by the zero polynomial")
        if len(other.terms) != 1:
            raise ExactnessError("division by a polynomial that is not a monomial")
        (dkey, dc), = other.terms.items()
        _join_kinds(self.kind, other.kind)
        num = self if dc == 1 else LaurentPoly(
            {k: _quotient(c, dc) for k, c in self.terms.items()})
        if not dkey:
            return num
        return product([num, _poly({tuple((vid, -e) for vid, e in dkey): 1}, other.kind)])

    # -- substitution -------------------------------------------------------

    def substitute(self, assignment: dict) -> "LaurentPoly":
        """Replace assigned variables by exact rationals; others stay symbolic."""
        out = {}
        for key, c in self.terms.items():
            coeff = c
            rest = []
            for vid, e in key:
                if vid in assignment:
                    val = Fraction(assignment[vid])
                    if val == 0 and e < 0:
                        raise ExactnessError("division by zero during Laurent evaluation")
                    coeff *= val ** e
                else:
                    rest.append((vid, e))
            rk = tuple(rest)
            out[rk] = out.get(rk, 0) + coeff
        return LaurentPoly(out)

    def evaluate(self, assignment: dict) -> Fraction:
        """The exact value at an assignment of every variable to an int or a
        Fraction, summed as one integer numerator over one denominator: a
        single Fraction per call."""
        num, den = 0, 1
        for key, c in self.terms.items():
            tn, td = c.numerator, c.denominator
            for vid, e in key:
                try:
                    val = assignment[vid]
                except KeyError:
                    raise InputError(f"no value for the variable {vid!r}") from None
                if type(val) is int:
                    if e > 0:
                        tn *= val ** e
                    elif val:
                        td *= val ** -e
                    else:
                        raise ExactnessError("division by zero during Laurent evaluation")
                    continue
                vn, vd = val.numerator, val.denominator
                if e > 0:
                    tn *= vn ** e
                    td *= vd ** e
                elif vn == 0:
                    raise ExactnessError("division by zero during Laurent evaluation")
                else:
                    tn *= vd ** -e
                    td *= vn ** -e
            if td == den:
                num += tn
            else:
                num, den = num * td + tn * den, den * td
        return Fraction(num, den)

    def all_ones(self):
        """The value at x = 1 for every variable: the sum of the coefficients."""
        return sum(self.terms.values())

    def coarse_collapse(self) -> "LaurentPoly":
        """Drop first subscripts: x[i,j] -> x[j]. Coarse input is returned as-is."""
        if self.kind in (None, COARSE):
            return self
        if self.kind != FINE:
            raise InputError("coarse collapse applies to fine polynomials")
        return poly_sum(_poly({_merge(((COARSE, j), e) for (_, _, j), e in key): c}, COARSE)
                        for key, c in self.terms.items())


def _quotient(c, d):
    """c / d exactly; an int quotient must leave no remainder."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        if r:
            raise ExactnessError("inexact division of a coefficient")
        return q
    return Fraction(c) / d


# -- variable constructors (X = x^2) ---------------------------------------


def X_fine(i: int, j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FINE, i, j): 2 * exp})


def X_coarse(j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(COARSE, j): 2 * exp})


def x_facet(F, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FACET, tuple(F)): exp})


def monomial_for_face(F, weighting: str = "fine", squared: bool = True) -> LaurentPoly:
    """x_F (or X_F) for a vertex multiset F under a weighting scheme
    (weighted.SCHEMES); InputError for any other scheme.

    fine:   prod_m x[m, F_m] over positions m = 1..|F|, F in any order;
    coarse: prod_v x[v], F in any order;
    facet:  the facet variable x{F} of the face F, in its given order.
    """
    step = 2 if squared else 1
    if weighting == "fine":
        return _poly({fine_face_key(F, 0, step): 1}, FINE)
    if weighting == "facet":
        return x_facet(F, step)
    if weighting != "coarse":
        raise InputError(f"unknown weighting scheme {weighting!r}")
    return LaurentPoly({tuple(((COARSE, j), step) for j in F): 1})  # sums repeated vertices


def poly_sum(polys) -> LaurentPoly:
    """Sum many polynomials in one accumulation (avoids quadratic dict copying)."""
    acc = {}
    kind = None
    for p in polys:
        if isinstance(p, (int, Fraction)):
            acc[()] = acc.get((), 0) + p
            continue
        kind = _join_kinds(kind, p.kind)
        for key, c in p.terms.items():
            acc[key] = acc.get(key, 0) + c
    return _poly({k: _exact(c) for k, c in acc.items() if c}, kind)


def fine_face_key(F, a: int, e: int) -> tuple:
    """The monomial key of raise^a(x_F^e) for a vertex multiset F: exponent e
    at x[m + a, F_m] for each position m of sorted F. No cutoff applies here."""
    return tuple(((FINE, m + a, j), e) for m, j in enumerate(sorted(F), start=1))


def key_quotient(num: tuple, *dens: tuple) -> tuple:
    """The monomial key of num / prod(dens): exponents subtracted, zeros dropped."""
    return _merge([*num, *((vid, -e) for den in dens for vid, e in den)])


# -- rendering / interchange -------------------------------------------------


def _var_text(vid, exp: int, x_form: bool) -> str:
    kind = vid[0]
    if kind == FINE:
        body = f"[{vid[1]},{vid[2]}]"
    elif kind == COARSE:
        body = f"[{vid[1]}]"
    else:
        body = "{" + ",".join(str(v) for v in vid[1]) + "}"
    name = "x" if x_form else "X"
    e = exp if x_form else exp // 2
    return f"{name}{body}" + (f"^{e}" if e != 1 else "")


def canonical_string(p: LaurentPoly) -> str:
    """Deterministic rendering: graded-lex term order, X-form when exponents
    allow. The result of a packed exit (_from_packed) is already in that
    order and renders as stored; any other polynomial is sorted here."""
    if p.is_zero():
        return "0"
    pairs = set().union(*p.terms)
    x_form = any(e % 2 for _, e in pairs)
    text = {pair: _var_text(*pair, x_form) for pair in pairs}.__getitem__
    terms = p.terms.items()
    if not p._ordered:
        # Graded-lex rank of a key as one int: base-2^w digits, total degree
        # first, then one digit per variable in key order. Digits are signed
        # but below 2^(w-1) in size, so comparing ints compares digit vectors.
        vids = sorted({vid for vid, _ in pairs})
        w = 2 + (max(map(len, p.terms)) * max((abs(e) for _, e in pairs), default=0)).bit_length()
        top = 1 << (w * len(vids))
        weight = {vid: top + (1 << (w * (len(vids) - 1 - i))) for i, vid in enumerate(vids)}
        terms = [(key, p.terms[key]) for key in sorted(
            p.terms, key=lambda key: sum([e * weight[vid] for vid, e in key]), reverse=True)]
    pieces = []
    for key, coeff in terms:
        mono = " * ".join(map(text, key))
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} * {mono}"
        pieces += (" - " if coeff < 0 else " + "), body
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def poly_to_json_dict(p: LaurentPoly) -> dict:
    x_form = not p.all_exponents_even()
    terms = []
    for key, coeff in sorted(p.terms.items()):  # keys are distinct and sorted
        exps = []
        for vid, e in key:
            shown = e if x_form else e // 2
            if vid[0] == FINE:
                exps.append([vid[1], vid[2], shown])
            elif vid[0] == COARSE:
                exps.append([vid[1], shown])
            else:
                exps.append([list(vid[1]), shown])
        terms.append({"coeff": str(coeff), "exps": exps})
    return {"vars": "x" if x_form else "X", "kind": p.kind or "const", "terms": terms}
