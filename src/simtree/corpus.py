"""Exhaustive enumeration of small shifted complexes, random APC complexes, and
the coarse-hearing witness search."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache

from .complexes import SimplicialComplex, lower_covers
from .errors import _require
from .exactlinalg import is_apc
from .shifted import lsg_direct

DEFAULT_SEED = 20080814


def componentwise_ideals(q: int, k: int):
    """All order ideals of the componentwise poset on k-subsets of [1, q].

    Yields frozensets (the empty ideal included), each exactly once: elements
    are decided in a linear extension, and inclusion is allowed only when every
    lower cover is already in.
    """
    elems = sorted(itertools.combinations(range(1, q + 1), k), key=lambda A: (sum(A), A))
    covers = [tuple(lower_covers(A, 1)) for A in elems]
    n = len(elems)
    chosen = set()

    def rec(i):
        if i == n:
            yield frozenset(chosen)
            return
        yield from rec(i + 1)
        if all(c in chosen for c in covers[i]):
            chosen.add(elems[i])
            yield from rec(i + 1)
            chosen.remove(elems[i])

    yield from rec(0)


@lru_cache(maxsize=None)
def enumerate_shifted_complexes(max_vertices: int = 6, max_dim: int = 2) -> tuple:
    """Every shifted complex with vertex set exactly [1, q], q <= max_vertices,
    of dimension <= max_dim (dimension >= 0)."""
    out = []
    for q in range(1, max_vertices + 1):
        level0 = [(v,) for v in range(1, q + 1)]
        pair_ideals = list(componentwise_ideals(q, 2)) if max_dim >= 1 else [frozenset()]
        triple_ideals = list(componentwise_ideals(q, 3)) if max_dim >= 2 else [frozenset()]
        for I2 in triple_ideals:
            required = {F[:i] + F[i + 1:] for F in I2 for i in range(3)}
            for I1 in pair_ideals:
                if not required <= I1:
                    continue
                faces = [()]
                faces.extend(level0)
                faces.extend(I1)
                faces.extend(I2)
                out.append(SimplicialComplex(faces))
    return tuple(out)


def random_apc_2_complexes(count: int = 100, seed: int = DEFAULT_SEED) -> tuple:
    """Seeded random APC 2-complexes on <= 6 vertices with 10..13 triangles
    (kept small enough for the brute-force oracle), in at most 200,000 draws."""
    rng = random.Random(seed)
    triangles = list(itertools.combinations(range(1, 7), 3))
    out = []
    for _ in range(200_000):
        if len(out) == count:
            break
        tris = rng.sample(triangles, rng.randint(10, 13))
        cx = SimplicialComplex.closure(tris)
        if cx.dim == 2 and is_apc(cx):
            out.append(cx)
    _require(len(out) == count, "random APC sampling failed to reach the requested count")
    return tuple(out)


def find_coarse_hearing_witness(max_vertices: int = 7, extended_max: int = 9) -> dict:
    """Search for two non-isomorphic pure shifted 2-complexes with equal
    facet-degree sequences (hence equal coarse top spectra) but different fine
    spectra.

    The primary range is [3, max_vertices]; if nothing is found there the
    search continues up to extended_max (the smallest witnesses live on 9
    vertices). The report records how far each range got.
    """
    limit = max(max_vertices, extended_max)
    for q in range(3, limit + 1):
        groups = {}
        for ideal in componentwise_ideals(q, 3):
            if not ideal:
                continue
            counts = Counter(v for F in ideal for v in F)
            if len(counts) != q:
                continue  # counted at its true vertex count
            degrees = tuple(counts[v] for v in range(1, q + 1))
            fam = tuple(sorted(ideal))
            for other in groups.get(degrees, ()):
                report = _witness_pair_report(other, fam, q, degrees)
                if report is not None:
                    report["primary_range_exhausted"] = q > max_vertices
                    report["primary_max_vertices"] = max_vertices
                    return report
            groups.setdefault(degrees, []).append(fam)
    return {"found": False, "searched_max_vertices": limit,
            "primary_max_vertices": max_vertices,
            "detail": "no pair of non-isomorphic pure shifted 2-complexes with "
                      "equal facet-degree sequences up to the searched size"}


def _degree_preserving_isomorphic(fam_a, fam_b, q, degrees) -> bool:
    """Is some vertex relabelling mapping fam_a onto fam_b? Only maps that
    preserve the (shared) degree sequence can work."""
    if len(set(degrees)) == q:
        return fam_a == fam_b  # all degrees distinct: only the identity qualifies
    set_b = {tuple(F) for F in fam_b}
    by_degree = {}
    for v, dv in enumerate(degrees, start=1):
        by_degree.setdefault(dv, []).append(v)
    classes = list(by_degree.values())
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        mapping = {}
        for cls, perm in zip(classes, perms):
            mapping.update(zip(cls, perm))
        if {tuple(sorted(mapping[v] for v in F)) for F in fam_a} == set_b:
            return True
    return False


def _witness_pair_report(fam_a, fam_b, q, degrees):
    lsg_a = lsg_direct(fam_a, 1)
    lsg_b = lsg_direct(fam_b, 1)
    if lsg_a == lsg_b:
        return None  # fine spectra agree: not a witness
    coarse_a = sorted((len(T) for _, T in lsg_a), reverse=True)
    coarse_b = sorted((len(T) for _, T in lsg_b), reverse=True)
    if coarse_a != coarse_b:
        return None
    if _degree_preserving_isomorphic(fam_a, fam_b, q, degrees):
        return None
    return {
        "found": True,
        "vertices": q,
        "facet_degrees": degrees,
        "facets_a": fam_a,
        "facets_b": fam_b,
        "coarse_spectrum_parts": tuple(coarse_a),
        "fine_lsg_a": tuple(lsg_a),
        "fine_lsg_b": tuple(lsg_b),
    }
