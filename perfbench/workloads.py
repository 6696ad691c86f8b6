"""The benchmark's three workloads: seeded inputs, jobs, and output checks.

A workload hands out rounds. Every round of a workload runs the same slots:
one job per (kind, key), on the same structure in every round, so each slot
does the same work each time and a run may stop after any whole round without
shifting the mix that the percentiles are taken over. Inputs differ between
rounds where the program allows it: vertex labels and offsets are drawn per
round from the seed, so no cache carries a result from one round to the next.

Jobs look up simtree functions through their module at call time
(``trees.tau_via_reduced_laplacian``), so the traced run sees its wrappers.
Every job parses a fresh complex with ``complex_from_json_dict``, as ``sst``
would, and renders its result the way ``sst`` prints it.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from math import comb

from simtree import complexes, corpus, exactlinalg, laurent, shifted, trees, verification, weighted
from simtree.complexes import face_label

# kind: job family; key: jobs of one round sharing a key are checked against
# each other, and (kind, key) names the job's slot, the same in every round;
# label: ROADMAP baseline name or None; fn(arg) -> (rendered text, value).
Job = namedtuple("Job", "kind key label fn arg")

# Substitutions per (complex, dimension) in spectrum-sweep. The acceptance
# scale (20) stays in tier-1; two keep a job near 25 ms.
SPECTRUM_SUBS = 2


def _relabel(facets, mapping):
    return {"facets": [[mapping[v] for v in F] for F in facets]}


def _order_preserving(rng, vertices, span):
    """Fresh labels in the same order: the structure, and its cost, are kept."""
    vertices = sorted(vertices)
    return dict(zip(vertices, sorted(rng.sample(range(1, span + 1), len(vertices)))))


def _offset(facets, p):
    """Shift a complex on [1, q] to [p, p + q - 1]; shifted complexes stay shifted."""
    return {"facets": [[v + p - 1 for v in F] for F in facets]}


def _facets(cx):
    return [list(F) for F in cx.facets() if F]


def _spread(items, cost, step):
    """The middle item of every step in order of estimated cost: a fixed
    sample that spans the cost range without its most costly item."""
    return sorted(items, key=cost, reverse=True)[step // 2::step]


def _count_text(tau):
    return json.dumps({"tau": tau}, sort_keys=True)


def _poly_text(poly):
    return laurent.canonical_string(poly)


# -- job bodies ----------------------------------------------------------------


def count_laplacian(data):
    cx = complexes.complex_from_json_dict(data)
    tau = trees.tau_via_reduced_laplacian(cx, cx.dim)
    return _count_text(tau), tau


def count_altproduct(data):
    cx = complexes.complex_from_json_dict(data)
    tau = trees.tau_via_alternating_product(cx, cx.dim)
    return _count_text(tau), tau


def count_oracle(data):
    cx = complexes.complex_from_json_dict(data)
    count = trees.enumerate_ssts(cx, cx.dim, include_trees=True)
    out = {"tau": count.tau,
           "trees": [{"facets": [face_label(F) for F in T], "torsion": t}
                     for T, t in count.per_tree]}
    return json.dumps(out, sort_keys=True), count.tau


def weighted_enumerator(arg):
    data, scheme = arg
    poly = weighted.weighted_tau(complexes.complex_from_json_dict(data), scheme)
    return _poly_text(poly), poly


def weighted_oracle_fine(data):
    poly = weighted.weighted_oracle(complexes.complex_from_json_dict(data), "fine")
    return _poly_text(poly), poly


def threshold_oracle(arg):
    return weighted_oracle_fine(arg[0])


def threshold_closed_form(data):
    poly = shifted.threshold_tau(complexes.complex_from_json_dict(data))
    return _poly_text(poly), poly


def shifted_fine(data):
    poly = shifted.shifted_tau_fine(complexes.complex_from_json_dict(data))
    return _poly_text(poly), poly


def shifted_coarse(data):
    poly = shifted.shifted_tau_coarse(complexes.complex_from_json_dict(data))
    return _poly_text(poly), poly


def ferrers_closed_form(partition):
    poly = shifted.ferrers_tau(partition)
    return _poly_text(poly), poly


def _spectrum_text(spec):
    lines = [f"z({face_label(z.S) if z.S else ''},{face_label(z.T)})"
             + (f" raised {z.shift}" if z.shift else "") for z in spec.zpolys]
    lines.append(f"zero multiplicity {spec.zero_multiplicity}")
    return "\n".join(lines)


def spectrum_round_trip(arg):
    data, seed, tag = arg
    cx = complexes.complex_from_json_dict(data)
    dims = range(cx.dim + 1)
    holds = [verification.spectrum_theorem_holds(cx, i, SPECTRUM_SUBS, seed, tag) for i in dims]
    spectra = {i: shifted.shifted_spectrum(cx, i) for i in dims}
    heard = shifted.hear_shape(spectra)
    integer_ok = exactlinalg.integer_spectrum_check(
        trees.up_down_laplacian(cx, cx.dim), list(shifted.unweighted_spectrum_duval_reiner(cx)))
    text = "\n".join([_spectrum_text(spectra[i]) for i in dims]
                     + [json.dumps({"facets": [list(F) for F in heard.facets() if F]}),
                        f"theorem {holds} integer {integer_ok}"])
    return text, (all(holds) and integer_ok, heard, cx)


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def _rngs(self, r, salt):
        """The job order depends on the round only, label draws also on the
        salt, so two passes of one round do the same work on fresh labels."""
        return (random.Random(f"{self.seed}:{self.name}:{r}"),
                random.Random(f"{self.seed}:{self.name}:{r}:{salt}"))

    def prepare(self):
        """Build the input pools that every round draws from."""

    def round(self, r: int, salt: int = 0) -> list:
        raise NotImplementedError

    def once(self, salt: int = 0) -> list:
        """Jobs run once per run, outside the rounds: the ROADMAP's largest
        named inputs. They take seconds each, and in every round they would
        leave too few rounds in a run for each slot's upper decile."""
        return []

    def warmup(self) -> list:
        raise NotImplementedError

    def reduce(self, job, text, value):
        """What the check needs of a job's output. Taken right after the job,
        outside its timing, so a run does not hold large results."""
        return value

    def check(self, results) -> list:
        """results: [(job, rendered text, reduced value)] of jobs that
        returned. Returns the indices of the jobs whose output is wrong."""
        raise NotImplementedError


class TauCount(Workload):
    """`sst count` across its three methods, plus the simplex skeletons
    (Kalai) and complete bipartite graphs by the reduced Laplacian."""

    name = "tau-count"
    # Random APC structures: the first of the program's seeded sample, under
    # labels drawn from the benchmark seed that keep the vertex order. Drawing
    # structures per seed moved p90 by half between seeds, because the slots
    # near it are few and far apart. 32 give the round over 100 slots.
    APC_STRUCTURES = 32
    SKELETONS = ((1, (10, 15, 20, 25, 30, 35, 40)), (2, (6, 7, 8, 9, 10, 11, 12)),
                 (3, (7, 8, 9, 10)))
    ONCE = ((3, 11), (3, 12))  # (d, n), 0.7-3 s each
    BIPARTITE = ((3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10))

    @staticmethod
    def _methods(data):
        return (("apc.laplacian", count_laplacian, data), ("apc.oracle", count_oracle, data),
                ("apc.altproduct", count_altproduct, data))

    def prepare(self):
        self.apc = [_facets(cx) for cx in corpus.random_apc_2_complexes(self.APC_STRUCTURES)]

    def round(self, r, salt=0):
        srng, lrng = self._rngs(r, salt)
        jobs = []
        for i, facets in enumerate(self.apc):
            data = _relabel(facets, _order_preserving(lrng, {v for F in facets for v in F}, 60))
            jobs += [Job(kind, ("apc", i), None, fn, arg)
                     for kind, fn, arg in self._methods(data)]
        jobs += [self._skeleton(lrng, n, d) for d, ns in self.SKELETONS for n in ns]
        for n, m in self.BIPARTITE:
            mapping = _order_preserving(lrng, range(1, n + m + 1), 4 * (n + m))
            data = _relabel([(a, n + b) for a in range(1, n + 1) for b in range(1, m + 1)],
                            mapping)
            jobs.append(Job("bipartite.laplacian", ("bipartite", n, m), None,
                            count_laplacian, data))
        srng.shuffle(jobs)
        return jobs

    def once(self, salt=0):
        _, lrng = self._rngs("once", salt)
        return [self._skeleton(lrng, n, d) for d, n in self.ONCE]

    @staticmethod
    def _skeleton(lrng, n, d):
        labels = sorted(lrng.sample(range(1, 4 * n + 1), n))
        data = {"facets": [list(F) for F in itertools.combinations(labels, d + 1)]}
        label = f"count simplex_skeleton(n={n}, d={d})" if d == 3 and n >= 10 else None
        return Job("skeleton.laplacian", ("skeleton", n, d), label, count_laplacian, data)

    def warmup(self):
        small = {"facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 5]]}
        return [Job(kind, ("apc", -1, 0), None, fn, arg) for kind, fn, arg in self._methods(small)]

    def check(self, results):
        bad = []
        routes = {}
        for idx, (job, _, value) in enumerate(results):
            tag = job.key[0]
            if tag == "apc":
                routes.setdefault(job.key, []).append((idx, value))
            elif tag == "skeleton":
                _, n, d = job.key
                if value != n ** comb(n - 2, d):  # Kalai
                    bad.append(idx)
            elif value != job.key[1] ** (job.key[2] - 1) * job.key[2] ** (job.key[1] - 1):
                bad.append(idx)
        for group in routes.values():
            if len(group) != 3 or len({v for _, v in group}) != 1:
                bad.extend(i for i, _ in group)
        return bad


class WeightedEnum(Workload):
    """`sst weighted`, `shifted tau`, `threshold` and `ferrers`: symbolic
    determinants, the weighted oracle, and the closed-form enumerators."""

    name = "weighted-enum"
    # weighted_tau on same-size random APC complexes ranges from 0.02 s to 5 s,
    # so drawing them per seed would swamp every other effect. The structures
    # are two of the program's seeded APC sample (criterion 9), on which
    # weighted_tau takes 0.05-0.15 s per scheme; on the first it takes
    # 0.4-0.6 s, a third of a round. The benchmark seed draws their labels,
    # which keep the vertex order.
    APC_PICK = (1, 3)
    # Every round runs the same threshold graphs, coarse-enumerator members and
    # Ferrers partitions: one in SAMPLE of each, spread over the cost range,
    # and one in FINE_SAMPLE of the APC members for shifted_tau_fine. The
    # costliest of each are left out, and so are threshold graphs on which the
    # oracle may visit over ORACLE_SUBSETS edge subsets (0.2-3 s each, K_7 the
    # costliest), so that a round takes about two seconds and a run holds
    # enough rounds for each slot's upper decile. threshold_tau and
    # shifted_tau_coarse need vertex set [1, n] and ferrers_tau takes a
    # partition, so those inputs repeat from round to round; the oracle runs
    # on relabelled copies.
    SAMPLE = 6
    FINE_SAMPLE = 2
    ORACLE_SUBSETS = 5000

    def prepare(self):
        sample = corpus.random_apc_2_complexes(max(self.APC_PICK) + 1)
        self.apc = [_facets(sample[i]) for i in self.APC_PICK]
        members = [cx for cx in corpus.enumerate_shifted_complexes(6, 2)
                   if exactlinalg.is_apc(cx)]
        self.members = [_facets(cx) for cx in
                        _spread(members, lambda cx: cx.f(cx.dim), self.FINE_SAMPLE)]
        self.coarse = [_facets(cx) for cx in _spread(members, lambda cx: cx.f(cx.dim), self.SAMPLE)]
        graphs = [sorted(ideal) for q in range(2, 8) for ideal in corpus.componentwise_ideals(q, 2)
                  if (1, q) in ideal]
        def subsets(edges):
            """Candidate edge subsets the oracle may visit: comb(edges, vertices - 1)."""
            return comb(len(edges), max(map(max, edges)) - 1)

        self.threshold = [g for g in _spread(graphs, subsets, self.SAMPLE)
                          if subsets(g) <= self.ORACLE_SUBSETS]
        # criterion 12's partitions: at most four parts of size at most four
        self.partitions = _spread(
            [lam for parts in range(1, 5)
             for lam in itertools.combinations_with_replacement(range(4, 0, -1), parts)],
            sum, self.SAMPLE)

    @staticmethod
    def _apc_kinds(data):
        return tuple((f"apc.weighted.{s}", weighted_enumerator, (data, s))
                     for s in weighted.SCHEMES) + (("apc.oracle.fine", weighted_oracle_fine, data),)

    def round(self, r, salt=0):
        srng, lrng = self._rngs(r, salt)
        jobs = []
        for i, facets in enumerate(self.apc):
            data = _relabel(facets, _order_preserving(lrng, range(1, 7), 60))
            jobs += [Job(kind, ("apc", i), None, fn, arg)
                     for kind, fn, arg in self._apc_kinds(data)]
        for i, edges in enumerate(self.threshold):
            jobs.append(Job("threshold.closed", ("threshold", i), None,
                            threshold_closed_form, {"facets": edges}))
            mapping = _order_preserving(lrng, {v for e in edges for v in e}, 60)
            jobs.append(Job("threshold.oracle", ("threshold", i), None, threshold_oracle,
                            (_relabel(edges, mapping), {v: k for k, v in mapping.items()})))
        offsets = lrng.sample(range(1, 10 ** 6), len(self.members))
        for i, (facets, p) in enumerate(zip(self.members, offsets)):
            jobs.append(Job("shifted.fine", ("fine", i), None, shifted_fine,
                            _offset(facets, p)))
        for i, facets in enumerate(self.coarse):
            jobs.append(Job("shifted.coarse", ("coarse", i), None, shifted_coarse,
                            {"facets": facets}))
        for i, lam in enumerate(self.partitions):
            jobs.append(Job("ferrers.closed", ("ferrers", i), None, ferrers_closed_form, lam))
        srng.shuffle(jobs)
        return jobs

    def once(self, salt=0):
        _, lrng = self._rngs("once", salt)
        simplex = _relabel(itertools.combinations(range(1, 7), 3),
                           _order_preserving(lrng, range(1, 7), 60))
        return [Job("simplex.weighted.coarse", ("simplex", 6, 2),
                    "weighted simplex_skeleton(n=6, d=2) coarse", weighted_enumerator,
                    (simplex, "coarse"))]

    def warmup(self):
        small = {"facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4]]}
        return [Job(kind, ("apc", -1, 0), None, fn, arg)
                for kind, fn, arg in self._apc_kinds(small)] + [
            Job("threshold.closed", ("threshold", -1, 0), None, threshold_closed_form,
                {"facets": [[1, 2], [1, 3]]}),
            Job("shifted.coarse", ("coarse", -1, 0), None, shifted_coarse, small),
            Job("ferrers.closed", ("ferrers", -1, 0), None, ferrers_closed_form, (2, 1))]

    # Routes that must return the identical polynomial for one input.
    SAME_ENUMERATOR = (("apc.weighted.fine", "apc.oracle.fine"),
                       ("threshold.closed", "threshold.oracle"))

    def reduce(self, job, text, value):
        """(value at all-ones weights, the canonical text in the input's own
        labels); canonical_string is injective, so equal texts mean equal
        polynomials."""
        if job.fn is threshold_oracle:
            back = job.arg[1]
            text = laurent.canonical_string(laurent.LaurentPoly(
                {tuple(((kind, i, back[j]), e) for (kind, i, j), e in key): c
                 for key, c in value.terms.items()}))
        return value.all_ones(), text

    def check(self, results):
        groups = {}
        for idx, (job, _, value) in enumerate(results):
            groups.setdefault(job.key, []).append((idx, job, value))
        bad = []
        for members in groups.values():
            tau = self._count(members[0][1])
            texts = {job.kind: text for _, job, (_, text) in members}
            agree = all(texts[a] == texts[b] for a, b in self.SAME_ENUMERATOR
                        if a in texts and b in texts)
            bad.extend(idx for idx, _, (ones, _) in members if not agree or ones != tau)
        return bad

    @staticmethod
    def _count(job):
        """The tree count the enumerator must reduce to at all-ones weights."""
        if job.key[0] == "simplex":
            n, d = job.key[1:]
            return n ** comb(n - 2, d)  # Kalai
        if job.key[0] == "ferrers":
            return trees.tau_via_reduced_laplacian(shifted.ferrers_bipartite_complex(job.arg), 1)
        data = job.arg[0] if isinstance(job.arg, tuple) else job.arg
        cx = complexes.complex_from_json_dict(data)
        return trees.tau_via_reduced_laplacian(cx, cx.dim)


class SpectrumSweep(Workload):
    """The spectrum theorem over the shifted corpus on <= 6 vertices: seeded
    substitutions, the spectrum -> hear_shape round trip, and the
    Duval-Reiner integer spectrum."""

    name = "spectrum-sweep"
    # One in SAMPLE of the 442 complexes, in corpus order (vertex count, then
    # ideals): the whole corpus takes 12 s a round, which leaves three rounds
    # in a run, too few for each slot's upper decile.
    SAMPLE = 4

    def prepare(self):
        self.members = [_facets(cx) for cx in
                        corpus.enumerate_shifted_complexes(6, 2)[self.SAMPLE // 2::self.SAMPLE]]

    def round(self, r, salt=0):
        srng, lrng = self._rngs(r, salt)
        offsets = lrng.sample(range(1, 10 ** 6), len(self.members))
        jobs = [Job("spectrum", ("spectrum", idx), None, spectrum_round_trip,
                    (_offset(facets, p), self.seed, str(idx)))
                for idx, (facets, p) in enumerate(zip(self.members, offsets))]
        srng.shuffle(jobs)
        return jobs

    def warmup(self):
        return [Job("spectrum", ("spectrum", -1, 0), None, spectrum_round_trip,
                    ({"facets": [[1, 2, 3], [1, 2, 4]]}, self.seed, "warmup"))]

    def reduce(self, job, text, value):
        ok, heard, cx = value
        return ok and heard == cx

    def check(self, results):
        return [idx for idx, (_, _, ok) in enumerate(results) if not ok]


WORKLOADS = {w.name: w for w in (TauCount, WeightedEnum, SpectrumSweep)}
