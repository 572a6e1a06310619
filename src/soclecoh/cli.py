"""Command-line surface: socle, obstruction, verify, hypothesis.

All input and output is JSON (a --format text mode renders summaries).
Exit codes are fixed so harnesses can assert precisely:

    0  success
    2  unparseable input (bad flags, malformed group/phi files)
    3  standing-assumption failure (top quotient not free over Z/l^n, H not
       abelian, or the group ring's augmentation ideal not nilpotent)
    4  size bound exceeded
    5  phi fails validation (wrong shape / not well-defined / not equivariant)
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
import hashlib
import json
import random
import sys

from .errors import (
    EquivarianceFailure,
    GeneratorsDontGenerate,
    InconsistentPresentation,
    KernelNotAbelian,
    NotAGroup,
    NotEllGroup,
    NotNilpotent,
    QuotientNotFree,
    SizeBound,
    SocleCohError,
    UnknownCatalogEntry,
)
from .cohomology import DEFAULT_H2_MAX_ORDER, ConnectingCochain, inflation_h2_surjective
from .fingroup import ExtensionData, catalog, group_from_json, make_extension
from .gmodule import ExtensionModules
from .obstruction import DEFAULT_HOM_ENUM_BOUND, ObstructionContext
from .zmodlin import RingConfig, span_orders

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_SIZE = 4
EXIT_EQUIVARIANCE = 5


class _InputError(Exception):
    """A flag or an input file is malformed."""


@contextmanager
def _reading_input():
    """Builtin errors raised while input is read are input errors; raised
    anywhere else they are library faults, and keep their traceback."""
    try:
        yield
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise _InputError(exc) from exc


_PARSE_ERRORS = (
    _InputError,
    NotAGroup,
    NotEllGroup,
    GeneratorsDontGenerate,
    InconsistentPresentation,
    UnknownCatalogEntry,
)


def _parse_params(text):
    if not text:
        return {}
    pieces = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            pieces.append(cur)
            cur = ""
            continue
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        cur += ch
    if cur:
        pieces.append(cur)
    out = {}
    for piece in pieces:
        key, _, val = piece.partition("=")
        if not key or not val:
            raise ValueError(f"bad --params entry {piece!r}, expected key=value")
        try:
            out[key.strip()] = json.loads(val)
        except json.JSONDecodeError:
            out[key.strip()] = val.strip()
    return out


def _load_group(args):
    if args.catalog and args.group_file:
        raise ValueError("give either --catalog or --group-file, not both")
    if args.catalog:
        params = _parse_params(args.params)
        params.setdefault("ell", args.ell)
        if args.catalog in ("unitriangular3", "free_class2"):
            params.setdefault("n", args.n)
        return catalog(args.catalog, params), args.catalog
    if args.group_file:
        with open(args.group_file) as fh:
            spec = json.load(fh)
        return group_from_json(spec, ell=args.ell), f"file:{args.group_file}"
    raise ValueError("a group is required: --catalog NAME or --group-file PATH")


def _extension(args) -> tuple[ExtensionData, str]:
    """The extension of the requested group, and the group's report label."""
    with _reading_input():
        ring = RingConfig(args.ell, args.n)
        group, label = _load_group(args)
    return make_extension(group, ring), label


def _context(args) -> ObstructionContext:
    if args.m < 2:
        raise _InputError(f"obstruction commands need m >= 2, got {args.m}")
    ext, label = _extension(args)
    return ObstructionContext(ext, label=label)


def _check_count(flag, count):
    """A phi count is checked before any group or module is built."""
    if count < 1:
        raise _InputError(f"{flag} needs a count >= 1, got {count}")
    if count > DEFAULT_HOM_ENUM_BOUND:
        raise SizeBound(f"{flag} count", DEFAULT_HOM_ENUM_BOUND, count)


def _cochain_dump(c):
    """A Cochain or ConnectingCochain as JSON, its entries in sorted order."""
    return {"degree": c.degree, "entries": [[list(t), list(v)] for t, v in c.entries()]}


def _cochain_hash(c) -> str:
    """sha256 of _cochain_dump(c) as compact sorted JSON.  A ConnectingCochain
    is fed one g1 at a time, each support tuple and each value formatted once."""
    h = hashlib.sha256(b'{"degree":%d,"entries":[' % c.degree)
    entry = "[[%s],[%s]]" % (",".join(["%d"] * c.degree), ",".join(["%d"] * c.action.module.rank))
    chunks = (entry % (tup + vec) for tup, vec in c.entries())
    if isinstance(c, ConnectingCochain):
        ends = ["%d]]" % x for x in range(c.action.module.ring.modulus)]
        tails = [(",%d" * len(t) % t + "],[", c.columns[v]) for t, v in sorted(c.f.values.items())]
        heads = ["[[%d" % g for g in c.action.group.elements()]
        chunks = (",".join([hd + t + ends[col[g]] for t, col in tails if col[g]])
                  for g, hd in enumerate(heads))
    sep = ""
    for chunk in filter(None, chunks):
        h.update((sep + chunk).encode())
        sep = ","
    h.update(b"]}")
    return h.hexdigest()


def _emit(report, args, text_renderer):
    if args.format == "text":
        payload = text_renderer(report)
    else:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with _reading_input(), open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- subcommands -----------------------------------------------------------------


def cmd_socle(args) -> int:
    ext, label = _extension(args)
    em = ExtensionModules(ext)
    chain = em.socle
    report = {
        "command": "socle",
        "group": label,
        "ell": args.ell,
        "n": args.n,
        "order": ext.total.order,
        "kernel_order": len(ext.kernel),
        "d": ext.d,
        "j_orders": list(em.j.module.orders),
        "socle_ranks": [len(span_orders(s)) for s in chain.steps],
        "socle_sizes_log": [s.span_size_log() for s in chain.steps],
        "stabilization": chain.stabilization,
    }

    def text(rep):
        lines = [
            f"group {rep['group']}: order {rep['order']}, kernel order {rep['kernel_order']}, d = {rep['d']}",
            f"J cyclic orders: {rep['j_orders']}",
            f"socle ranks by level: {rep['socle_ranks']} (stabilizes at {rep['stabilization']})",
        ]
        return "\n".join(lines) + "\n"

    _emit(report, args, text)
    return EXIT_OK


def _phi_matrix(spec, m):
    """The matrix rows of a phi file's spec {"m": int (optional), "matrix": [[int]]}."""
    if not isinstance(spec, dict):
        raise ValueError("phi spec must be a JSON object")
    for key in spec:
        if key not in ("m", "matrix"):
            raise ValueError(f"unknown key {key!r} in the phi spec")
    if type(spec.get("m", m)) is not int:
        raise ValueError(f"phi level {spec['m']!r} is not an integer")
    if spec.get("m", m) != m:
        raise ValueError(f"phi file is for level {spec['m']}, run asked {m}")
    matrix = spec.get("matrix")
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise ValueError("phi matrix must be a list of lists")
    for row in matrix:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"phi matrix entry {x!r} is not an integer")
    return [tuple(r) for r in matrix]


def _phi_records(ctx, args):
    m = args.m
    if args.phi_file:
        with _reading_input(), open(args.phi_file) as fh:
            matrix = _phi_matrix(json.load(fh), m)
        yield ctx.phi_from_matrix(m, matrix)
    elif args.random is not None:
        if args.seed is None:
            raise _InputError("--random needs --seed")
        yield from ctx.random_phi(m, random.Random(args.seed), args.random)
    else:
        yield from ctx.enumerate_phi(m)


def cmd_obstruction(args) -> int:
    if args.random is not None:
        _check_count("--random", args.random)
    elif args.seed is not None:
        raise _InputError("--seed needs --random")
    ctx = _context(args)
    want_routes = args.routes
    records = []
    for phi in _phi_records(ctx, args):
        if want_routes == "generic":
            res = ctx.psi_generic(phi)
        else:
            include_m2 = want_routes in ("m2", "all") and args.m == 2
            res = ctx.obstruction_with_routes(phi, include_m2=include_m2)
        rec = {
            "phi": [list(r) for r in phi.matrix],
            "psi_hash": _cochain_hash(res.psi),
            "zero_class": res.is_zero_class,
        }
        if res.agreement is not None:
            rec["routes"] = res.agreement
        if args.dump_cochains:
            rec["psi"] = _cochain_dump(res.psi)
            if res.is_zero_class:
                witness = ctx.r_complex.coboundary_witness(res.psi.materialize())
                if witness is None:
                    raise SocleCohError("the H^3 decision and the bar solve disagree")
                rec["witness"] = _cochain_dump(witness)
        records.append(rec)
    report = {
        "command": "obstruction",
        "group": ctx.label,
        "ell": args.ell,
        "n": args.n,
        "m": args.m,
        "routes": want_routes,
        "records": records,
        "zero_class_count": sum(1 for r in records if r["zero_class"]),
    }

    def text(rep):
        lines = [
            f"group {rep['group']}, m = {rep['m']}: {len(rep['records'])} maps, "
            f"{rep['zero_class_count']} with vanishing obstruction"
        ]
        for rec in rep["records"]:
            bits = ""
            if "routes" in rec:
                bits = " routes=" + ",".join(
                    "ok" if v else "FAIL" for v in rec["routes"].values()
                )
            lines.append(
                f"  phi {rec['phi']}: zero_class={rec['zero_class']}{bits} psi#{rec['psi_hash'][:12]}"
            )
        return "\n".join(lines) + "\n"

    _emit(report, args, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples is None:
        mode = ("exhaustive",)
    else:
        if args.seed is None:
            raise _InputError("--samples needs --seed")
        _check_count("--samples", args.samples)
        mode = ("sampled", args.seed, args.samples)
    ctx = _context(args)
    report = ctx.verify_theorem(args.m, mode=mode, max_order=args.max_order)
    report["command"] = "verify"

    def text(rep):
        hyp = rep["hypothesis"]
        d1, d2 = rep["direction1"], rep["direction2"]
        lines = [
            f"group {rep['group']} (order {rep['order']}, d = {rep['d']}), m = {rep['m']}, {rep['mode']}",
            f"socle ranks: {rep['socle_ranks']}",
            f"hypothesis (inflation onto H^2): holds={hyp['holds']} "
            f"h2_total_dim={hyp['h2_total_dim']} inflated_dim={hyp['inflated_dim']}",
            f"direction 1 (every phi_gamma unobstructed): checked={d1['checked']} passed={d1['passed']}",
            f"direction 2 (unobstructed => phi_gamma): asserted={d2['asserted']} "
            f"checked={d2['checked']} passed={d2['passed']} "
            f"zero_class_count={d2['zero_class_count']} image_size={d2['image_size']}",
        ]
        for ce in rep["counterexamples"]:
            lines.append(f"  counterexample: {ce}")
        return "\n".join(lines) + "\n"

    _emit(report, args, text)
    return EXIT_OK


def cmd_hypothesis(args) -> int:
    ext, label = _extension(args)
    holds, diag = inflation_h2_surjective(ext, max_order=args.max_order)
    report = {
        "command": "hypothesis",
        "group": label,
        "ell": args.ell,
        "n": args.n,
        "order": ext.total.order,
        "holds": holds,
        "h2_total_dim": diag["h2_total_dim"],
        "h2_orders": diag["h2_orders"],
        "inflated_dim": diag["inflated_dim"],
    }

    def text(rep):
        return (
            f"group {rep['group']} (order {rep['order']}): inflation surjective on H^2: "
            f"{rep['holds']} (h2_total_dim={rep['h2_total_dim']}, inflated_dim={rep['inflated_dim']})\n"
        )

    _emit(report, args, text)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="soclecoh",
        description="Socle filtrations over Z/l^n group rings and their degree-3 obstructions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_m=False, h2_check=False):
        sp.add_argument("--catalog", help="catalog group name")
        sp.add_argument("--group-file", help="path to a group JSON file")
        sp.add_argument("--params", help="catalog parameters, key=value[,key=value]")
        sp.add_argument("--ell", type=int, required=True, help="the prime l")
        sp.add_argument("--n", type=int, required=True, help="the exponent n of l^n")
        if with_m:
            sp.add_argument("--m", type=int, required=True, help="filtration level (>= 2)")
        if h2_check:
            sp.add_argument("--max-order", type=int, default=DEFAULT_H2_MAX_ORDER,
                            help="largest total-group order allowed for the H^2 check")
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("socle", help="socle series of J")
    common(sp)
    sp.set_defaults(func=cmd_socle)

    sp = sub.add_parser("obstruction", help="obstruction classes of filtration maps")
    common(sp, with_m=True)
    src = sp.add_mutually_exclusive_group()
    src.add_argument("--phi-file", help="JSON file with one phi matrix")
    src.add_argument("--enumerate", action="store_true", help="all equivariant maps")
    src.add_argument("--random", type=int, help="sample this many random maps")
    sp.add_argument("--seed", type=int, help="seed for --random")
    sp.add_argument("--routes", choices=("generic", "closed", "m2", "all"), default="generic")
    sp.add_argument("--dump-cochains", action="store_true")
    sp.set_defaults(func=cmd_obstruction)

    sp = sub.add_parser("verify", help="check both directions of the main equivalence")
    common(sp, with_m=True, h2_check=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, help="sampled mode: number of draws")
    sp.add_argument("--seed", type=int, help="sampled mode seed")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hypothesis", help="is inflation surjective on H^2?")
    common(sp, h2_check=True)
    sp.set_defaults(func=cmd_hypothesis)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuotientNotFree, KernelNotAbelian, NotNilpotent) as exc:
        print(f"standing assumption failed: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except SizeBound as exc:
        print(f"size bound: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except EquivarianceFailure as exc:
        print(f"phi validation failed: {exc}", file=sys.stderr)
        return EXIT_EQUIVARIANCE
    except _PARSE_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
