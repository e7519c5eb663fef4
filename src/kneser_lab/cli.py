"""Command line front end.

One subcommand per library entry point: bound (closed form), construct
(tight partition to JSON), verify (any certificate file), solve (partition
number), chi (chromatic number of a Kneser-type hypergraph), blowup
(partition certificate to constrained coloring), table (grid agreement
report with search nodes and millis per row).  Exit codes: 0 ok, 1 verification failure, 2 bad parameters,
3 timeout, 4 size cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .constructions import (
    ColoringCertificate,
    PartitionCertificate,
    blow_up,
    build_tight_partition,
    certificate_from_dict,
    check_stable_embedding,
    tail_size,
    tight_bound,
)
from .errors import (
    CapExceeded,
    InadmissibleParams,
    InstanceTooLarge,
    InvalidCertificate,
    InvalidParams,
    InvalidPartSpec,
    LengthMismatch,
    MalformedCertificate,
)
from .kneser import (
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
)
from .setsys import GroundParams
from .solve import (
    EXACT,
    TIMEOUT,
    SolveBudget,
    SolveResult,
    chromatic_number,
    min_partition_number,
)
from .verify import verify_coloring_certificate, verify_partition_certificate


def _parse_parts(text: str) -> PartSpec:
    """Blocks as slash-separated comma lists, e.g. '1,2/3,4/5,6'."""
    try:
        blocks = tuple(
            tuple(int(x) for x in chunk.split(",")) for chunk in text.split("/")
        )
    except ValueError as exc:
        raise InvalidPartSpec(f"cannot parse parts {text!r}: {exc}") from exc
    return PartSpec(blocks)


def _parse_range(text: str) -> list[int]:
    """'2..5' -> [2,3,4,5]; '4' -> [4]."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(text)]
    except ValueError as exc:
        raise InvalidParams(f"cannot parse range {text!r}") from exc
    if not out:
        raise InvalidParams(f"empty range {text!r}")
    return out


def _read_certificate(path: str) -> PartitionCertificate | ColoringCertificate:
    """A certificate file, or the certificate of a `solve`/`chi -o` result."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or not UTF-8
            raise MalformedCertificate(f"{path} is not a JSON document: {exc}") from exc
    if isinstance(doc, dict) and "certificate" in doc:
        doc = doc["certificate"]
        if doc is None:
            raise MalformedCertificate(f"{path} is a result without a certificate")
    return certificate_from_dict(doc)


def _budget(args: argparse.Namespace) -> SolveBudget:
    return SolveBudget(
        max_seconds=args.timeout,
        max_nodes=args.max_nodes,
        proof_cap=args.proof_cap,
        workers=args.workers,
    )


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _emit_kv(args: argparse.Namespace, doc: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        flat = {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}
        w = csv.DictWriter(buf, fieldnames=list(flat))
        w.writeheader()
        w.writerow(flat)
        print(buf.getvalue(), end="")
    else:
        print(text)


def _report_solve(args: argparse.Namespace, res: SolveResult) -> int:
    """Write --out, print the result, exit 3 on TIMEOUT."""
    doc = res.to_dict()
    if args.out:
        _write_json(args.out, doc)
    if res.status == EXACT:
        head = f"EXACT value={res.upper}"
    else:
        head = f"{res.status} lower={res.lower} upper={res.upper}"
    _emit_kv(args, doc, f"{head} nodes={res.nodes} millis={res.millis}")
    return 3 if res.status == TIMEOUT else 0


def cmd_bound(args: argparse.Namespace) -> int:
    p = GroundParams(args.n, args.k, args.r)
    if not p.admissible:
        print(
            f"error: inadmissible parameters, r*k={p.r * p.k} exceeds "
            f"(r-1)*n={(p.r - 1) * p.n}",
            file=sys.stderr,
        )
        return 2
    m = tight_bound(p)
    s = tail_size(p.k, p.r)
    doc = {"n": p.n, "k": p.k, "r": p.r, "m": m, "s": s, "n_minus_s_plus_1": p.n - s + 1}
    _emit_kv(args, doc, f"m={m} s={s} (n-s+1={p.n - s + 1}, admissible)")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    p = GroundParams(args.n, args.k, args.r)
    cert = build_tight_partition(p)
    doc = cert.to_dict()
    if args.out:
        _write_json(args.out, doc)
        _emit_kv(
            args,
            {"out": args.out, "families": cert.num_families,
             "sizes": list(cert.family_sizes())},
            f"wrote {args.out}: {cert.num_families} families, "
            f"sizes {list(cert.family_sizes())}",
        )
    else:
        print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cert = _read_certificate(args.path)
    if isinstance(cert, PartitionCertificate):
        rep = verify_partition_certificate(cert)
        what = f"partition of C({cert.params.n},{cert.params.k}) into {cert.num_families} families"
        uncovered = rep.stats["expected_members"] - rep.stats["members"]
        if uncovered:
            what += f"; {uncovered} subsets uncovered"
    else:
        rep = verify_coloring_certificate(cert)
        what = f"coloring with {cert.num_colors} colors on ground {cert.ground_n}"
        if rep.stats["disjoint_tuples"]:
            what += f"; {rep.stats['disjoint_tuples']} monochromatic edges"
    out_doc = {
        "ok": rep.ok,
        "kind": "partition" if isinstance(cert, PartitionCertificate) else "coloring",
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "reason": v.reason}
            for v in rep.violations[:20]
        ],
        "stats": rep.stats,
    }
    _emit_kv(args, out_doc, f"{rep.summary()} ({what})")
    return 0 if rep.ok else 1


def cmd_solve(args: argparse.Namespace) -> int:
    p = GroundParams(args.n, args.k, args.r)
    return _report_solve(args, min_partition_number(p, _budget(args)))


def cmd_chi(args: argparse.Namespace) -> int:
    p = GroundParams(args.n, args.k, args.r)
    if args.stable is not None:
        h = build_stable_subhypergraph(p, args.stable)
    elif args.parts is not None:
        h = build_partition_constrained(p, _parse_parts(args.parts))
    else:
        h = build_kneser_hypergraph(p)
    return _report_solve(args, chromatic_number(h, _budget(args)))


def cmd_blowup(args: argparse.Namespace) -> int:
    cert = _read_certificate(args.path)
    if not isinstance(cert, PartitionCertificate):
        raise MalformedCertificate("blowup expects a partition certificate")
    coloring, bmap = blow_up(cert)
    if args.out:
        _write_json(args.out, coloring.to_dict())
    rep = check_stable_embedding(bmap)
    out_doc = {
        "ground_n": coloring.ground_n,
        "vertices": len(coloring.colors),
        "colors": coloring.num_colors,
        "stable_vertices": rep.stats.get("stable_vertices"),
        "embedding_ok": rep.ok,
        "out": args.out,
    }
    _emit_kv(
        args,
        out_doc,
        f"{coloring.num_colors} colors on {len(coloring.colors)} vertices "
        f"(ground {coloring.ground_n}); stable embedding "
        f"{'ok' if rep.ok else 'FAILED'} over {rep.stats.get('stable_vertices')} "
        f"stable vertices",
    )
    return 0 if rep.ok else 1


def cmd_table(args: argparse.Namespace) -> int:
    rs = _parse_range(args.r_range)
    if min(rs) < 2:  # r = 1 would divide by r - 1 below
        raise InvalidParams(f"need r >= 2, got r={min(rs)}")
    ks = _parse_range(args.k_range)
    budget = _budget(args)
    rows = []
    all_agree = True
    for r in rs:
        for k in ks:
            if args.n_range == "auto":
                start = -(-r * k // (r - 1))
                ns = list(range(start, start + args.span))
            else:
                ns = _parse_range(args.n_range)
            for n in ns:
                if n < k or r * k > (r - 1) * n:
                    continue
                p = GroundParams(n, k, r)
                mb = tight_bound(p)
                cert = build_tight_partition(p)
                vrep = verify_partition_certificate(cert)
                res = min_partition_number(p, budget)
                agree = (
                    res.status == EXACT
                    and res.upper == mb
                    and cert.num_families == mb
                    and vrep.ok
                )
                all_agree = all_agree and agree
                rows.append(
                    {
                        "n": n,
                        "k": k,
                        "r": r,
                        "tight_bound": mb,
                        "solver_status": res.status,
                        "solver_value": res.upper if res.status == EXACT
                        else f"{res.lower}:{res.upper}",
                        "construction_families": cert.num_families,
                        "agree": agree,
                        "nodes": res.nodes,
                        "millis": res.millis,
                    }
                )
    fields = [
        "n", "k", "r", "tight_bound", "solver_status", "solver_value",
        "construction_families", "agree", "nodes", "millis",
    ]
    if args.format == "json":
        body = json.dumps({"rows": rows, "all_agree": all_agree}, indent=2)
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
        body = buf.getvalue().rstrip("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
        print(f"wrote {args.out}: {len(rows)} rows, all_agree={all_agree}")
    else:
        print(body)
    return 0 if all_agree else 1


_DISPATCH = {
    "bound": cmd_bound,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "chi": cmd_chi,
    "blowup": cmd_blowup,
    "table": cmd_table,
}


def _add_nkr(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("r", type=int)


def _at_least(convert, low: float, strict: bool = False):
    """argparse type: convert, then require value >= low (> low if strict)."""

    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


def _add_budget(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--timeout", type=_at_least(float, 0, strict=True),
                    default=None, help="wall clock limit in seconds")
    sp.add_argument("--max-nodes", dest="max_nodes", type=_at_least(int, 1),
                    default=None)
    sp.add_argument("--proof-cap", dest="proof_cap", type=_at_least(int, 0),
                    default=40, help="max vertices for optimality proofs")
    sp.add_argument("--workers", type=_at_least(int, 1), default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kneser-lab",
        description="partitions of k-subsets into r-wise intersecting "
        "families, with exact verification and solving",
    )
    ap.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="closed-form minimum family count")
    _add_nkr(sp)

    sp = sub.add_parser("construct", help="write the tight partition certificate")
    _add_nkr(sp)
    sp.add_argument("-o", "--out", default=None)

    sp = sub.add_parser("verify", help="check a certificate file")
    sp.add_argument("path")

    sp = sub.add_parser("solve", help="exact minimum partition number")
    _add_nkr(sp)
    _add_budget(sp)
    sp.add_argument("-o", "--out", default=None)

    sp = sub.add_parser("chi", help="exact chromatic number")
    _add_nkr(sp)
    variant = sp.add_mutually_exclusive_group()
    variant.add_argument("--stable", type=int, default=None,
                         help="restrict to s-stable vertices")
    variant.add_argument("--parts", default=None,
                         help="blocks like 1,2/3,4/5,6")
    _add_budget(sp)
    sp.add_argument("-o", "--out", default=None)

    sp = sub.add_parser("blowup", help="lift a partition certificate")
    sp.add_argument("path")
    sp.add_argument("-o", "--out", default=None)

    sp = sub.add_parser("table", help="formula vs solver vs construction grid")
    sp.add_argument("--r", dest="r_range", default="2..3")
    sp.add_argument("--k", dest="k_range", default="1..3")
    sp.add_argument("--n", dest="n_range", default="auto",
                    help="explicit range like 4..7, or 'auto'")
    sp.add_argument("--span", type=_at_least(int, 1), default=2,
                    help="rows per (r,k) when --n auto")
    _add_budget(sp)
    sp.add_argument("-o", "--out", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (
        InvalidParams,
        InvalidPartSpec,
        InadmissibleParams,
        MalformedCertificate,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidCertificate, LengthMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
