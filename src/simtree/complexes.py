"""Simplicial complexes on positive integer vertices, with exact face combinatorics.

Faces are strictly increasing tuples of positive integers; the empty face () is
always stored, so chain groups include C_{-1} and homology is reduced. Complexes
are immutable: every construction returns a new object.

A boundary matrix is stored as its column supports: column F holds the k+1
pairs (row index, sign) of the facets of F. Because a complex never changes,
what is derived from it is memoised on the complex itself (SimplicialComplex.
memo) and lives exactly as long as it does: the boundary matrices, their
column reductions (boundary ranks and pivots), whether the complex is shifted,
and its shifted spectra, one per dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError, _require

Face = tuple  # tuple[int, ...], strictly increasing

# The face budget. SimplicialComplex.closure refuses a generator G whose 2^|G|
# subsets alone would pass it, and otherwise refuses once the faces built so
# far, G's subsets included, pass it. shifted_ideal_faces
# (shifted generators, shifted.hear_shape) counts 2^|F| for each new face F of
# its order ideals, itself and the subsets closure builds from it, so what it
# accepts passes closure too. A complex on at most 6 vertices, the acceptance
# scale, counts at most 3^6 = 729.
FACE_CAP = 50_000


def face(vertices) -> Face:
    """Normalize an iterable of vertices into a face tuple."""
    try:
        vs = tuple(vertices)
    except TypeError:
        raise InputError(f"a face must be a list of vertices, got {vertices!r}") from None
    for v in vs:
        # bool is an int subclass: true/false in JSON must not become vertex 1/0
        if type(v) is not int or v < 1:
            raise InputError(f"vertices must be positive integers, got {v!r}")
    vs = tuple(sorted(vs))
    if any(vs[i] == vs[i + 1] for i in range(len(vs) - 1)):
        raise InputError(f"duplicate vertex in face {vertices!r}")
    return vs


def face_label(F: Face) -> str:
    """Canonical text for a face: digit string if all vertices <= 9, else comma-separated."""
    if not F:
        return "-"
    return ("" if max(F) <= 9 else ",").join(map(str, F))


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed boundary map from k-faces (columns) to (k-1)-faces (rows)."""

    rows: tuple
    cols: tuple
    supports: tuple  # per column, its nonzeros as ((row index, +1 or -1), ...)

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.cols)


class SimplicialComplex:
    """A finite simplicial complex, stored as the full downward-closed face set."""

    __slots__ = ("_by_dim", "_faces", "_vertices", "_hash", "_memo")

    def __init__(self, faces):
        face_set = set(faces)
        face_set.add(())
        # downward closure check: every facet of every face must be present
        for F in face_set:
            for i in range(len(F)):
                if F[:i] + F[i + 1:] not in face_set:
                    raise InputError(f"face set not downward closed at {F}")
        self._fill(face_set)

    @classmethod
    def _closed(cls, faces) -> "SimplicialComplex":
        """The complex on a face set that its construction keeps downward
        closed (closure, link, deletion, skeleton), built without the scan."""
        face_set = set(faces)
        face_set.add(())
        cx = cls.__new__(cls)
        cx._fill(face_set)
        return cx

    def _fill(self, face_set):
        by_dim = {}
        for F in face_set:
            by_dim.setdefault(len(F) - 1, []).append(F)
        for lst in by_dim.values():
            lst.sort()
        object.__setattr__(self, "_by_dim", {d: tuple(fs) for d, fs in sorted(by_dim.items())})
        object.__setattr__(self, "_faces", frozenset(face_set))
        verts = sorted({v for F in face_set for v in F})
        object.__setattr__(self, "_vertices", tuple(verts))
        object.__setattr__(self, "_hash", hash(self._faces))
        object.__setattr__(self, "_memo", {})

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls([()])

    @classmethod
    def closure(cls, generators) -> "SimplicialComplex":
        """All subsets of the generators. Raises ResourceLimitError before
        building a generator with more than FACE_CAP subsets, and once the
        faces built pass FACE_CAP."""
        return cls._closure(map(face, generators))

    @classmethod
    def _closure(cls, generators) -> "SimplicialComplex":
        """closure of generators that are faces already."""
        faces = set()
        for G in generators:
            if 1 << len(G) > FACE_CAP:
                break
            if G not in faces:  # faces is downward closed: G's subsets are there
                for r in range(len(G) + 1):
                    faces.update(itertools.combinations(G, r))
                if len(faces) > FACE_CAP:
                    break
        else:
            return cls._closed(faces)
        raise ResourceLimitError(
            f"the complex would build more than {FACE_CAP} faces (the face budget)")

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        facets = [tuple(f_) for f_ in facets]
        _require_nonempty(facets)
        return cls.closure(facets)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._by_dim)

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def min_vertex(self) -> int:
        if not self._vertices:
            raise InputError("complex has no vertices")
        return self._vertices[0]

    def faces_of_dim(self, i: int) -> tuple:
        return self._by_dim.get(i, ())

    def all_faces(self) -> frozenset:
        return self._faces

    def f(self, i: int) -> int:
        return len(self._by_dim.get(i, ()))

    def facets(self) -> tuple:
        """Inclusion-maximal faces: in a complex, the faces that are no
        codimension-1 face of a face."""
        covered = {G[:i] + G[i + 1:] for G in self._faces for i in range(len(G))}
        return tuple(sorted(self._faces - covered, key=lambda F: (len(F), F)))

    def __contains__(self, F) -> bool:
        return tuple(F) in self._faces

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._faces == other._faces

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tops = ",".join(face_label(F) for F in self.facets())
        return f"SimplicialComplex<{tops}>"

    def memo(self, key, compute):
        """compute(), evaluated once per complex and key."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    # -- constructions -------------------------------------------------

    def skeleton(self, i: int) -> "SimplicialComplex":
        if i < -1 or i > self.dim:
            raise InputError(f"skeleton dimension {i} out of range [-1, {self.dim}]")
        if i == self.dim:
            return self
        return SimplicialComplex._closed(F for F in self._faces if len(F) - 1 <= i)

    def pure_skeleton(self, i: int) -> "SimplicialComplex":
        """Subcomplex generated by the i-faces; the empty complex if there are none."""
        gens = self._by_dim.get(i, ())
        if not gens:
            return SimplicialComplex.empty()
        return SimplicialComplex.closure(gens)

    def link(self, v: int) -> "SimplicialComplex":
        if v not in self._vertices:
            raise InputError(f"vertex {v} not in complex")
        return SimplicialComplex._closed(
            F for F in self._faces if v not in F and tuple(sorted(F + (v,))) in self._faces
        )

    def deletion(self, v: int) -> "SimplicialComplex":
        """del_v = {F \\ {v} : F a face}; coincides with faces avoiding v plus the link."""
        if v not in self._vertices:
            raise InputError(f"vertex {v} not in complex")
        return SimplicialComplex._closed(tuple(u for u in F if u != v) for F in self._faces)

    # -- boundary matrices ----------------------------------------------

    def boundary_matrix(self, k: int) -> BoundaryMatrix:
        """The signed boundary map C_k -> C_{k-1}; k may be dim+1 (zero columns)."""
        if k < 0 or k > self.dim + 1:
            raise InputError(f"boundary dimension {k} out of range [0, {self.dim + 1}]")
        return self.memo(("boundary", k), lambda: self._boundary(k))

    def _boundary(self, k: int) -> BoundaryMatrix:
        rows = self._by_dim.get(k - 1, ())
        cols = self._by_dim.get(k, ())
        row_index = {F: i for i, F in enumerate(rows)}
        signs = [-1 if pos % 2 else 1 for pos in range(k + 1)]
        supports = tuple([tuple([(row_index[F[:pos] + F[pos + 1:]], signs[pos])
                                 for pos in range(k + 1)]) for F in cols])
        return BoundaryMatrix(rows=rows, cols=cols, supports=supports)

    # -- degrees --------------------------------------------------------

    def degree_sequence(self, i: int | None = None) -> tuple:
        """Per-vertex count of i-faces containing each vertex (i defaults to dim)."""
        if i is None:
            i = self.dim
        degrees = dict.fromkeys(self._vertices, 0)
        for F in self._by_dim.get(i, ()):
            for v in F:
                degrees[v] += 1
        return tuple(degrees.values())


def is_shifted(cx: SimplicialComplex) -> bool:
    """Exchange condition: i < j vertices, j in F, i not in F => F - j + i is a face.

    Only i = the next smaller vertex of the complex is tried: chaining such
    exchanges yields all the others. F - j + i then stays sorted in place.
    """
    verts = cx.vertices
    below = dict(zip(verts[1:], verts))
    faces = cx.all_faces()
    for F in faces:
        for pos, j in enumerate(F):
            i = below.get(j)
            if i is not None and (pos == 0 or F[pos - 1] != i) \
                    and F[:pos] + (i,) + F[pos + 1:] not in faces:
                return False
    return True


def lower_covers(A: Face, p: int):
    """The faces A covers componentwise: one entry lowered by 1, the tuple
    staying strictly increasing with entries >= p."""
    for idx, a in enumerate(A):
        b = a - 1
        if b >= p and (idx == 0 or b > A[idx - 1]):
            yield A[:idx] + (b,) + A[idx + 1:]


def _ideal_below(gen: Face, p: int):
    """All strictly increasing tuples componentwise <= gen with entries >= p."""

    def rec(idx, lo):
        if idx == len(gen):
            yield ()
            return
        for v in range(lo, gen[idx] + 1):
            for rest in rec(idx + 1, v + 1):
                yield (v,) + rest

    yield from rec(0, p)


def shifted_ideal_faces(generators, p: int) -> set:
    """The union of the componentwise order ideals below the generators, with
    entries >= p. Raises ResourceLimitError once the faces it would build pass
    FACE_CAP."""
    faces = set()
    built = 0
    for gen in generators:
        if gen in faces:
            continue  # an earlier ideal holds gen, hence all of its ideal
        for F in _ideal_below(gen, p):
            if F not in faces:
                faces.add(F)
                built += 1 << len(F)
                if built > FACE_CAP:
                    raise ResourceLimitError(
                        f"the shifted complex would build more than {FACE_CAP} faces "
                        "(the face budget)")
    return faces


def shifted_from_generators(generators, p: int) -> SimplicialComplex:
    """The shifted complex generated by the given faces, with minimal vertex p."""
    _require_min_vertex(p)
    return _shifted_complex([face(gen) for gen in generators], p)


def _shifted_complex(gens, p: int) -> SimplicialComplex:
    """shifted_from_generators of generators that are faces already."""
    for G in gens:
        if G and G[0] < p:
            raise InputError(f"generator {G} has a vertex below the minimal vertex {p}")
    faces = shifted_ideal_faces(gens, p)
    cx = SimplicialComplex._closure(faces) if faces else SimplicialComplex.empty()
    _require(cx.memo("shifted", lambda: is_shifted(cx)), "generated complex must be shifted")
    return cx


# -- JSON interchange ---------------------------------------------------


def _require_min_vertex(p):
    if type(p) is not int or p < 1:
        raise InputError(f"min_vertex must be a positive integer, got {p!r}")


def _require_nonempty(facets):
    if any(len(f_) == 0 for f_ in facets):
        raise InputError("facets must be nonempty")


def _json_faces(data: dict, key: str) -> list:
    faces = data[key]
    if not isinstance(faces, (list, tuple)):
        raise InputError(f"'{key}' must be a list of vertex lists")
    return [face(f_) for f_ in faces]


def complex_from_json_dict(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise InputError("complex JSON must be an object")
    if "facets" in data:
        facets = _json_faces(data, "facets")
        _require_nonempty(facets)
        return SimplicialComplex._closure(facets)
    if "shifted_generators" in data:
        p = data.get("min_vertex", 1)
        _require_min_vertex(p)
        return _shifted_complex(_json_faces(data, "shifted_generators"), p)
    raise InputError("complex JSON needs a 'facets' or 'shifted_generators' key")

