"""Small constructions and readers that only the tests use: dense boundary
matrices, cones, f-vectors, JSON output of a complex, and the variable
constructors the library itself has no use for."""

from simtree.complexes import SimplicialComplex
from simtree.errors import InputError
from simtree.laurent import COARSE, FACET, LaurentPoly


def dense(bd) -> list:
    """A BoundaryMatrix as a fresh dense row-major list of lists."""
    rows = [[0] * bd.n_cols for _ in bd.rows]
    for j, col in enumerate(bd.supports):
        for i, s in col:
            rows[i][j] = s
    return rows


def cone(cx: SimplicialComplex, p: int) -> SimplicialComplex:
    """The cone over cx with apex p, a positive integer not yet a vertex."""
    if p in cx.vertices:
        raise InputError(f"cone apex {p} already a vertex")
    if p < 1:
        raise InputError("cone apex must be a positive integer")
    faces = set(cx.all_faces())
    return SimplicialComplex(faces | {tuple(sorted(F + (p,))) for F in faces})


def f_vector(cx: SimplicialComplex) -> tuple:
    return tuple(cx.f(i) for i in range(-1, cx.dim + 1))


def is_pure(cx: SimplicialComplex) -> bool:
    return all(len(F) - 1 == cx.dim for F in cx.facets())


def complex_to_json_dict(cx: SimplicialComplex) -> dict:
    return {"facets": [list(F) for F in cx.facets() if F]}


def constant_value(p: LaurentPoly):
    """The value of a constant polynomial; InputError if a variable is left."""
    if list(p.terms) not in ([], [()]):
        raise InputError("polynomial is not constant")
    return p.terms.get((), 0)


def x_coarse(j: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(COARSE, j): exp})


def X_facet(F, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial({(FACET, tuple(F)): 2 * exp})
