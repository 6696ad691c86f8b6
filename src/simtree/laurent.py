"""Sparse multivariate Laurent polynomials over exact rationals.

Variable families:
  ('f', i, j)  fine variable x[i,j]   (position i within a face, vertex j)
  ('c', j)     coarse variable x[j]   (one per vertex)
  ('e', F)     facet variable x{F}    (one per facet F, facet-generic weighting)

Exponents are stored in x-units: the squared variable X = x^2 is exponent 2.
A polynomial whose exponents are all even renders and serializes in X-form
(exponents halved); anything else renders in x-form. A polynomial never mixes
variable kinds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactnessError, InputError

FINE = "f"
COARSE = "c"
FACET = "e"


def _kind_of_terms(terms) -> str | None:
    kind = None
    for key in terms:
        for vid, _ in key:
            if kind is None:
                kind = vid[0]
            elif kind != vid[0]:
                raise InputError("polynomial mixes variable kinds")
    return kind


class LaurentPoly:
    """Immutable sparse Laurent polynomial: {exponent-key: nonzero Fraction}."""

    __slots__ = ("terms", "kind")

    def __init__(self, terms=None):
        norm = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            key = tuple(sorted((vid, e) for vid, e in key if e != 0))
            norm[key] = norm.get(key, Fraction(0)) + coeff
        norm = {k: c for k, c in norm.items() if c != 0}
        object.__setattr__(self, "terms", norm)
        object.__setattr__(self, "kind", _kind_of_terms(norm))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, q):
        return cls({(): Fraction(q)})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def monomial(cls, exps: dict, coeff=1):
        return cls({tuple(sorted(exps.items())): Fraction(coeff)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if list(self.terms) != [()]:
            raise InputError("polynomial is not constant")
        return self.terms[()]

    def variables(self):
        return sorted({vid for key in self.terms for vid, _ in key})

    def all_exponents_even(self) -> bool:
        return all(e % 2 == 0 for key in self.terms for _, e in key)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def has_nonnegative_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"LaurentPoly({canonical_string(self)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({k: c * other for k, c in self.terms.items()})
        out = {}
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(d1)
                for vid, e in k2:
                    merged[vid] = merged.get(vid, 0) + e
                key = tuple(sorted((vid, e) for vid, e in merged.items() if e != 0))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return LaurentPoly.one().div_exact(self ** (-n))
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def div_exact(self, other) -> "LaurentPoly":
        """Exact division; monomial divisors always work in the Laurent ring."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if other.is_zero():
            raise ExactnessError("division by the zero polynomial")
        if other.is_monomial():
            (dkey, dcoeff), = other.terms.items()
            ddict = dict(dkey)
            out = {}
            for key, c in self.terms.items():
                merged = dict(key)
                for vid, e in ddict.items():
                    merged[vid] = merged.get(vid, 0) - e
                out[tuple(sorted((v, e) for v, e in merged.items() if e != 0))] = c / dcoeff
            return LaurentPoly(out)
        quot, rem = _poly_divmod(self, other)
        if not rem.is_zero():
            raise ExactnessError("inexact polynomial division")
        return quot

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
            out[rk] = out.get(rk, Fraction(0)) + coeff
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

    def all_ones(self) -> Fraction:
        return self.substitute({vid: 1 for vid in self.variables()}).constant_value()

    def coarse_collapse(self) -> "LaurentPoly":
        """Drop first subscripts: x[i,j] -> x[j]. Coarse input is returned as-is."""
        if self.kind in (None, COARSE):
            return self
        if self.kind != FINE:
            raise InputError("coarse collapse applies to fine polynomials")
        out = {}
        for key, c in self.terms.items():
            merged = {}
            for (_, _, j), e in ((vid, e) for vid, e in key):
                merged[(COARSE, j)] = merged.get((COARSE, j), 0) + e
            rk = tuple(sorted((v, e) for v, e in merged.items() if e != 0))
            out[rk] = out.get(rk, Fraction(0)) + c
        return LaurentPoly(out)


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Multivariate division in the Laurent ring.

    Both operands are shifted by their minimal exponent vectors into genuine
    polynomials, which are divided with the graded-lex order; lead terms that
    the divisor's lead does not divide go to the remainder.
    """
    vars_all = sorted(set(a.variables()) | set(b.variables()))
    pos = {v: i for i, v in enumerate(vars_all)}
    nv = len(vars_all)

    def to_vec(key):
        vec = [0] * nv
        for vid, e in key:
            vec[pos[vid]] = e
        return tuple(vec)

    def shift_down(p):
        mins = [0] * nv
        first = True
        for key in p.terms:
            vec = to_vec(key)
            if first:
                mins = list(vec)
                first = False
            else:
                mins = [min(m, e) for m, e in zip(mins, vec)]
        shifted = {tuple(x - m for x, m in zip(to_vec(key), mins)): c
                   for key, c in p.terms.items()}
        return shifted, mins

    def order(vec):
        return (sum(vec), vec)

    A, min_a = shift_down(a)
    B, min_b = shift_down(b)
    lead_vec = max(B, key=order)
    lead_coeff = B[lead_vec]
    quot = {}
    rem_extra = False
    work = dict(A)
    while work:
        lt = max(work, key=order)
        if all(x >= y for x, y in zip(lt, lead_vec)):
            qvec = tuple(x - y for x, y in zip(lt, lead_vec))
            qc = work[lt] / lead_coeff
            quot[qvec] = quot.get(qvec, Fraction(0)) + qc
            for bvec, bc in B.items():
                tgt = tuple(x + y for x, y in zip(qvec, bvec))
                nc = work.get(tgt, Fraction(0)) - qc * bc
                if nc:
                    work[tgt] = nc
                else:
                    work.pop(tgt, None)
        else:
            rem_extra = True
            work.pop(lt)
    if rem_extra:
        return LaurentPoly.zero(), LaurentPoly.one()  # inexact marker
    offset = [x - y for x, y in zip(min_a, min_b)]

    def from_vec(vec):
        return tuple((vars_all[i], e) for i, e in enumerate(vec) if e != 0)

    out = {from_vec(tuple(x + o for x, o in zip(vec, offset))): c
           for vec, c in quot.items()}
    return LaurentPoly(out), LaurentPoly.zero()


# -- variable constructors (X = x^2) ---------------------------------------


def x_fine(i: int, j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FINE, i, j): exp})


def X_fine(i: int, j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FINE, i, j): 2 * exp})


def x_coarse(j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(COARSE, j): exp})


def X_coarse(j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(COARSE, j): 2 * exp})


def x_facet(F, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FACET, tuple(F)): exp})


def X_facet(F, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FACET, tuple(F)): 2 * exp})


def monomial_for_face(F, weighting: str = "fine", squared: bool = True) -> LaurentPoly:
    """x_F (or X_F) for a sorted vertex multiset F.

    fine:   prod_m x[m, F_m] over positions m = 1..|F|;
    coarse: prod_v x[v].
    """
    step = 2 if squared else 1
    if weighting == "fine":
        return LaurentPoly({fine_face_key(F, 0, step): 1})
    exps = {}
    if weighting == "coarse":
        for j in F:
            exps[(COARSE, j)] = exps.get((COARSE, j), 0) + step
    else:
        raise InputError(f"unknown weighting {weighting!r}")
    return LaurentPoly.monomial(exps)


def poly_sum(polys) -> LaurentPoly:
    """Sum many polynomials in one accumulation (avoids quadratic dict copying)."""
    acc = {}
    for p in polys:
        if isinstance(p, (int, Fraction)):
            acc[()] = acc.get((), Fraction(0)) + p
            continue
        for key, c in p.terms.items():
            acc[key] = acc.get(key, Fraction(0)) + c
    return LaurentPoly(acc)


def fine_face_key(F, a: int, e: int) -> tuple:
    """The monomial key of raise^a(x_F^e) for a vertex multiset F: exponent e
    at x[m + a, F_m] for each position m of sorted F. No cutoff applies here
    (raise_key applies one)."""
    return tuple(((FINE, m + a, j), e) for m, j in enumerate(sorted(F), start=1))


def key_quotient(num: tuple, *dens: tuple) -> tuple:
    """The monomial key of num / prod(dens): exponents subtracted, zeros dropped."""
    exps = dict(num)
    for den in dens:
        for vid, e in den:
            exps[vid] = exps.get(vid, 0) - e
    return tuple(sorted((vid, e) for vid, e in exps.items() if e))


def raise_key(key: tuple, a: int, d_cutoff: int):
    """One monomial key under the raising operator x[i,j] -> x[i+a,j]; None
    when the monomial is annihilated. The first variable (in key order)
    pushed past d_cutoff+1 decides: a positive exponent kills the monomial, a
    negative one is 1/0."""
    new = []
    for (_, i, j), e in key:
        if i + a > d_cutoff + 1:
            if e < 0:
                raise ExactnessError("raising a negative power past the cutoff")
            return None
        new.append(((FINE, i + a, j), e))
    return tuple(new)


def raise_op(p: LaurentPoly, a: int, d_cutoff: int) -> LaurentPoly:
    """The raising operator on fine variables: x[i,j] -> x[i+a,j], applied to
    every term by raise_key.

    Any term acquiring an index i+a > d_cutoff+1 with positive exponent is
    annihilated (raising a position past the top dimension kills the
    monomial); a negative exponent out of range is 1/0.
    """
    if a < 0:
        raise InputError("raising steps must be nonnegative")
    if a == 0 or p.is_zero():
        return p
    if p.kind not in (None, FINE):
        raise InputError("raising applies to fine polynomials")
    out = {}
    for key, c in p.terms.items():
        rk = raise_key(key, a, d_cutoff)
        if rk is not None:
            out[rk] = out.get(rk, Fraction(0)) + c
    return LaurentPoly(out)


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
    """Deterministic rendering: graded-lex term order, X-form when exponents allow."""
    if p.is_zero():
        return "0"
    x_form = not p.all_exponents_even()
    vars_all = p.variables()
    pos = {vid: idx for idx, vid in enumerate(vars_all)}

    def sort_key(key):
        vec = [0] * len(vars_all)
        for vid, e in key:
            vec[pos[vid]] = e
        return (sum(vec), vec)

    pieces = []
    for key in sorted(p.terms, key=sort_key, reverse=True):
        coeff = p.terms[key]
        mono = " * ".join(_var_text(vid, e, x_form) for vid, e in key)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} * {mono}"
        pieces.append((coeff < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def poly_to_json_dict(p: LaurentPoly) -> dict:
    x_form = not p.all_exponents_even()
    terms = []

    def sort_key(item):
        return sorted(item[0])

    for key, coeff in sorted(p.terms.items(), key=sort_key):
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
