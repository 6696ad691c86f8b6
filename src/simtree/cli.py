"""Command-line front end.

Exit codes: 0 success, 1 input/parse error, 2 domain error (non-APC,
non-shifted, ...), 3 resource budget exceeded. Output is deterministic for a
fixed configuration; --json switches structured output on where available.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import complex_from_json_dict, face, face_label, shifted_from_generators
from .corpus import DEFAULT_SEED
from .errors import DomainError, InputError, ResourceLimitError
from .exactlinalg import homology
from .laurent import canonical_string, poly_to_json_dict
from .shifted import (
    ZPolynomial,
    critical_pairs,
    ferrers_tau,
    hear_shape,
    shifted_spectrum,
    shifted_tau_coarse,
    shifted_tau_fine,
    threshold_graph_from_degrees,
    threshold_tau,
)
from .trees import enumerate_ssts, tau_via_alternating_product, tau_via_reduced_laplacian
from .weighted import SCHEMES, weighted_tau


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True)


def _read_json(path, what: str):
    """The JSON value in a file. InputError when it cannot be read or parsed,
    also for invalid UTF-8, an integer past the int-to-str digit limit and
    nesting past the recursion limit."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def _load_any_complex(args):
    if args.min_vertex is not None and args.generators is None:
        raise InputError("--min-vertex applies only to --generators")
    if args.complex:
        return complex_from_json_dict(_read_json(args.complex, "complex"))
    if args.generators:
        gens = [face(_int_list(chunk)) for chunk in args.generators.split(";")]
        return shifted_from_generators(gens, 1 if args.min_vertex is None else args.min_vertex)
    raise InputError("provide --complex FILE or --generators LIST")


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_homology(args) -> str:
    cx = _load_any_complex(args)
    return _dump(homology(cx, args.dim).to_json_dict())


def _cmd_count(args) -> str:
    if args.trees and args.method != "oracle":
        raise InputError("--trees applies only to --method oracle")
    cx = _load_any_complex(args)
    k = args.dim if args.dim is not None else cx.dim
    if args.method == "oracle":
        count = enumerate_ssts(cx, k, include_trees=args.trees)
        out = {"tau": count.tau}
        if args.trees:
            out["trees"] = [{"facets": [face_label(F) for F in T], "torsion": t}
                            for T, t in count.per_tree]
    elif args.method == "altproduct":
        out = {"tau": tau_via_alternating_product(cx, k)}
    else:
        out = {"tau": tau_via_reduced_laplacian(cx, k)}
    return _dump(out)


def _poly_output(poly, as_json: bool) -> str:
    return _dump(poly_to_json_dict(poly)) if as_json else canonical_string(poly)


def _cmd_weighted(args) -> str:
    cx = _load_any_complex(args)
    return _poly_output(weighted_tau(cx, args.scheme), args.json)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _load_spectra(path) -> dict:
    """The spectra of a spectrum file: an object whose "spectra" maps each
    dimension (a decimal string) to a list of {"S": int list, "T": nonempty
    int list}, as `sst shifted spectrum --json` writes it. A d-face brings
    2^(d+1) faces, so within the face budget a dimension is at most 14."""
    data = _read_json(path, "spectra")
    raw = data.get("spectra") if isinstance(data, dict) else None
    if not (isinstance(raw, dict) and all(
            i in [str(d) for d in range(15)] and isinstance(entries, list)
            and all(isinstance(e, dict) and _is_int_list(e.get("S"))
                    and _is_int_list(e.get("T")) and e["T"] for e in entries)
            for i, entries in raw.items())):
        raise InputError(f"{path}: \"spectra\" must map each dimension, 0 to 14, to a list "
                         "of {\"S\": integer list, \"T\": nonempty integer list}")
    return {int(i): [ZPolynomial(S=tuple(e["S"]), T=tuple(e["T"])) for e in entries]
            for i, entries in raw.items()}


def _cmd_shifted(args) -> str:
    if args.action == "hear":
        if not args.spectrum_file:
            raise InputError("hear needs --spectrum-file")
        cx = hear_shape(_load_spectra(args.spectrum_file))
        return _dump({"facets": [list(F) for F in cx.facets() if F]})

    cx = _load_any_complex(args)
    if args.action == "tau":
        poly = shifted_tau_coarse(cx) if args.coarse else shifted_tau_fine(cx)
        return _poly_output(poly, args.json)
    i = args.dim if args.dim is not None else cx.dim
    if args.action == "critical-pairs":
        cps = critical_pairs(cx.faces_of_dim(i), cx.min_vertex)
        rows = [{"A": list(cp.A), "B": list(cp.B),
                 "signature": list(cp.signature),
                 "S": list(cp.long_signature[0]), "T": list(cp.long_signature[1])}
                for cp in cps]
        if args.json:
            return _dump({"dim": i, "pairs": rows})
        return "\n".join(
            f"({face_label(cp.A)}, {face_label(cp.B)})  signature {face_label(cp.signature)}"
            f"  z({face_label(cp.long_signature[0]) if cp.long_signature[0] else ''},"
            f"{face_label(cp.long_signature[1])})" for cp in cps) or "(no critical pairs)"
    # spectrum
    spec = shifted_spectrum(cx, i)
    if args.coarse:
        parts = spec.coarse_parts()
        if args.json:
            return _dump({"dim": i, "coarse_parts": list(parts),
                          "zero_multiplicity": spec.zero_multiplicity})
        body = ", ".join(f"E_{t}" for t in parts) or "(empty)"
        return f"{body}  + 0^{spec.zero_multiplicity}"
    if args.json:
        return _dump({"dim": i,
                      "spectra": {str(i): [{"S": list(z.S), "T": list(z.T)}
                                           for z in spec.zpolys]},
                      "zero_multiplicity": spec.zero_multiplicity})
    lines = [f"z({face_label(z.S) if z.S else ''},{face_label(z.T)})"
             + (f" raised {z.shift}" if z.shift else "") for z in spec.zpolys]
    lines.append(f"zero multiplicity {spec.zero_multiplicity}")
    return "\n".join(lines)


def _cmd_threshold(args) -> str:
    g = threshold_graph_from_degrees(_int_list(args.degrees))
    return _poly_output(threshold_tau(g), args.json)


def _cmd_ferrers(args) -> str:
    return _poly_output(ferrers_tau(tuple(_int_list(args.partition))), args.json)


def _cmd_verify(args) -> str:
    from .verification import run_acceptance

    results = run_acceptance(seed=args.seed, max_vertices=args.max_vertices,
                             quick=args.quick)
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed (seed {args.seed})")
    if not all(r.passed for r in results):
        raise DomainError("\n".join(lines))
    return "\n".join(lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="sst", description="Simplicial spanning tree enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_complex_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--complex", help="JSON complex file")
        source.add_argument("--generators", help="shifted generators, e.g. '2,3,5' or '2,4;3,3'")
        p.add_argument("--min-vertex", type=int, help="minimal vertex of --generators (default 1)")

    p = sub.add_parser("homology", help="reduced homology summary")
    add_complex_args(p)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("count", help="tau_k by oracle, reduced Laplacian, or alternating product")
    add_complex_args(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--method", choices=("oracle", "laplacian", "altproduct"),
                   default="laplacian")
    p.add_argument("--trees", action="store_true", help="list trees (oracle method)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("weighted", help="weighted enumerator tau-hat_d")
    add_complex_args(p)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("shifted", help="shifted-complex spectral operations")
    p.set_defaults(func=_cmd_shifted)
    # one parser per action, so that each refuses the options of the others
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("spectrum", help="eigenvalues as z-polynomials or coarse parts")
    add_complex_args(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--coarse", action="store_true")
    p.add_argument("--json", action="store_true")

    p = actions.add_parser("tau", help="closed-form fine or coarse enumerator")
    add_complex_args(p)
    p.add_argument("--coarse", action="store_true")
    p.add_argument("--json", action="store_true")

    p = actions.add_parser("critical-pairs", help="critical pairs and their signatures")
    add_complex_args(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = actions.add_parser("hear", help="reconstruct a shifted complex from its spectra")
    p.add_argument("--spectrum-file", help="spectra JSON, as 'spectrum --json' writes it")

    p = sub.add_parser("threshold", help="threshold-graph enumerator from a degree sequence")
    p.add_argument("--degrees", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("ferrers", help="Ferrers-graph enumerator from a partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ferrers)

    p = sub.add_parser("verify", help="run the acceptance suite over the bundled corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--quick", action="store_true", help="shrunken smoke-test sweeps")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    codes = {InputError: 1, DomainError: 2, ResourceLimitError: 3}
    try:
        args = parser.parse_args(argv)
        print(args.func(args))
        return 0
    except tuple(codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return codes[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
