"""Command line front end.

Data commands read and write JSON with sorted keys and no whitespace, so
output is stable across runs and safe to diff in shell pipelines.  Exit
codes: 0 success, 1 negative result, 2 bad input, 3 oracle bound exceeded
(only hn consults the oracle).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import chart_atlas as ca
from . import exc_collections as xc
from . import gl_action, pn_model, rep_lab, verify
from .klattice import (
    CentralCharge,
    GaussianRational,
    OracleBoundError,
    Quiver,
    kronecker_quiver,
)


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read_source(value: str, head: str = "{") -> str:
    # literal JSON or rep text can be passed inline, anything else is a file path
    if value.lstrip().startswith(head):
        return value
    return Path(value).read_text()


def _load_object(value: str) -> dict:
    data = json.loads(_read_source(value))
    if not isinstance(data, dict):
        raise ValueError(f"a JSON object is expected, not {type(data).__name__}")
    return data


def _load_collection(args) -> xc.ExcCollection:
    if getattr(args, "pn", None) is not None:
        return pn_model.pn_collection(args.pn, getattr(args, "base", 0) or 0)
    if getattr(args, "collection", None) is None:
        raise ValueError("pass --collection FILE or --pn N")
    return xc.collection_from_data(_load_object(args.collection))


def _load_point(value: str) -> pn_model.PnPoint:
    return pn_model.point_from_data(_load_object(value))


def _parse_quiver(spec: str) -> Quiver:
    """pN, or N;S>T,S>T,... with integers spelled as in a table key, spaces
    around them allowed."""
    if spec.startswith("p") and spec[1:].isdecimal():
        return kronecker_quiver(int(spec[1:]))
    head, _, arrow_part = spec.partition(";")
    arrows = []
    for chunk in arrow_part.split(",") if arrow_part else ():
        try:
            s, t = (xc._key_int(end.strip()) for end in chunk.split(">"))
        except (TypeError, ValueError):
            raise TypeError(f"quiver arrow {chunk!r} is not S>T with integer vertices") from None
        arrows.append((s, t))
    return Quiver("q", xc._key_int(head.strip()), tuple(arrows))


def _parse_charges(option: str, text: str) -> tuple[GaussianRational, ...]:
    try:
        return tuple(GaussianRational.parse(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed {option!r} field: {exc}") from None


def _read_resolutions(items) -> dict[tuple[int, int], dict[int, int]]:
    """Entries I,J:DEG=DIM[,DEG=DIM], integers spelled as in a table key;
    a pair or a degree given twice is refused, not overwritten."""
    out: dict[tuple[int, int], dict[int, int]] = {}
    for item in items:
        pair, _, dims_part = item.partition(":")
        if (key := xc._pair_key(pair)) in out:
            raise TypeError(f"entry {pair} is resolved twice")
        dims = out[key] = {}
        for chunk in dims_part.split(",") if dims_part else ():
            deg, _, d = chunk.partition("=")
            if (k := xc._key_int(deg)) in dims:
                raise TypeError(f"degree {deg} is given twice in {item!r}")
            dims[k] = xc._key_int(d)
    return out


def _parse_resolutions(items) -> dict[tuple[int, int], dict[int, int]]:
    return xc._field("--resolve", items or (), _read_resolutions)


# -- command bodies ---------------------------------------------------------


def cmd_mutate(args) -> int:
    c = _load_collection(args)
    for (i, j), dims in _parse_resolutions(args.resolve).items():
        c = xc.resolve_entry(c, i, j, dims)
    mutated = xc.mutate(c, args.index, args.direction)
    _emit(xc.collection_to_data(mutated))
    return 0


def cmd_classify(args) -> int:
    flags = xc.classify(_load_collection(args))
    _emit(
        {
            "strong": flags.strong,
            "ext": flags.ext,
            "regular": flags.regular,
            "orthogonal": flags.orthogonal,
        }
    )
    return 0


def cmd_chart(args) -> int:
    system = ca.cone_system(_load_collection(args))
    _emit({"size": system.size, "constraints": system.to_data()})
    return 0


def cmd_build(args) -> int:
    c = _load_collection(args)
    shifts = xc._field("--shifts", args.shifts, lambda v: tuple(map(xc._key_int, v.split(","))))
    point = ca.build_stability(c, shifts, _parse_charges("--charges", args.charges))
    _emit(point.to_data())
    return 0


def cmd_member(args) -> int:
    point = _load_point(args.point)
    member = pn_model.theta_member(point, args.chart)
    _emit({"chart": args.chart, "member": member})
    return 0 if member else 1


def cmd_hn(args) -> int:
    quiver = xc._field("--quiver", args.quiver, _parse_quiver)
    rep = rep_lab.parse_rep(_read_source(args.rep, "rep "), quiver)
    charge = CentralCharge(_parse_charges("--charge", args.charge))
    factors = rep_lab.hn(rep, charge, bound=args.oracle_bound)
    _emit(
        {
            "factors": [
                {"dims": list(f.dims), "charge": str(t.z)} for f, t in factors
            ]
        }
    )
    return 0


def cmd_stable_pair(args) -> int:
    point = _load_point(args.point)
    _emit({"found": True, "chart": pn_model.find_stable_pair(point, window=args.window)})
    return 0


def cmd_overlap(args) -> int:
    report = pn_model.overlap_scan(
        args.arrows,
        args.chart,
        args.other,
        samples=args.samples,
        seed=args.seed,
    )
    _emit(report)
    return 0 if not report["counterexamples"] else 1


def cmd_witness(args) -> int:
    c = _load_collection(args)
    w = ca.overlap_witness(c, args.index, _parse_resolutions(args.resolve) or None)
    _emit(
        {
            "shifts": list(w.shifts),
            "point": w.point.to_data(),
            "mutated": xc.collection_to_data(w.mutated),
            "mutated_point": w.mutated_point.to_data(),
        }
    )
    return 0


def cmd_orbit(args) -> int:
    p = _load_point(args.point)
    q = _load_point(args.target)
    if (p.n, p.base) != (q.n, q.base):
        # orbit_solve compares tokens, which mean nothing across charts
        raise ValueError(
            f"orbit needs both points on one chart: n={p.n} base={p.base} and n={q.n} base={q.base}"
        )
    g = gl_action.orbit_solve(p, q)
    if g is None:
        _emit({"related": False})
        return 1
    _emit({"related": True, "element": g.to_data()})
    return 0


def cmd_verify(args) -> int:
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    bad = 0
    for name in names:
        result = verify.run_suite(name)
        mark = "PASS" if result.passed else "FAIL"
        print(f"[{mark}] {name}: {result.cases} cases in {result.elapsed:.2f}s")
        for failure in result.failures:
            print(f"    {failure}")
        if not result.passed:
            bad += 1
    return 0 if bad == 0 else 1


# -- parser -----------------------------------------------------------------


def _oracle_bound(text: str) -> int:
    """A nonnegative --oracle-bound; argparse names the option on a refusal."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"a nonnegative integer is expected, not {text!r}")
    return int(text)


def _add_collection_source(sub) -> None:
    sub.add_argument("--collection", help="collection JSON, inline or a file path")
    sub.add_argument("--pn", type=int, help="use the two object collection with N arrows")
    sub.add_argument("--base", type=int, default=0, help="chart index for --pn")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabctl",
        description="stability charts, mutations, and the representation oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate a collection at an index")
    _add_collection_source(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--direction", choices=(xc.LEFT, xc.RIGHT), required=True)
    p.add_argument(
        "--resolve",
        action="append",
        metavar="I,J:DEG=DIM[,DEG=DIM]",
        help="fill an unknown entry before mutating",
    )
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("classify", help="strength flags of a collection")
    _add_collection_source(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chart", help="print the phase cone of a collection")
    _add_collection_source(p)
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("build", help="build a presentation from shifts and charges")
    _add_collection_source(p)
    p.add_argument("--shifts", required=True, metavar="S0,S1,...")
    p.add_argument("--charges", required=True, metavar="Z0,Z1,...")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("member", help="chart membership of a point")
    p.add_argument("--point", required=True, help="point JSON, inline or a file path")
    p.add_argument("--chart", type=int, required=True)
    p.add_argument(
        "--oracle-bound", type=_oracle_bound, help="accepted and unused: no oracle call here"
    )
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("hn", help="filtration of a representation")
    p.add_argument("--rep", required=True, help="rep text, inline or a file path")
    p.add_argument("--charge", required=True, metavar="Z0,Z1,...")
    p.add_argument("--quiver", default="p2", help="pN, 'V;0>1,0>1,...' or V for no arrows")
    p.add_argument("--oracle-bound", type=_oracle_bound)
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("stable-pair", help="find a chart whose pair is stable")
    p.add_argument("--point", required=True)
    p.add_argument("--window", type=int, default=20)
    p.add_argument(
        "--oracle-bound", type=_oracle_bound, help="accepted and unused: no oracle call here"
    )
    p.set_defaults(func=cmd_stable_pair)

    p = sub.add_parser("overlap", help="scan chart membership against the orbit")
    p.add_argument("--arrows", type=int, required=True)
    p.add_argument("--chart", type=int, required=True)
    p.add_argument("--other", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("witness", help="a point on two adjacent charts")
    _add_collection_source(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument(
        "--resolve",
        action="append",
        metavar="I,J:DEG=DIM[,DEG=DIM]",
        help="fill an unknown entry of the mutated table",
    )
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("orbit", help="solve for the group element joining two points")
    p.add_argument("--point", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run the self checking suites")
    p.add_argument(
        "--suite", default="all", choices=("all",) + verify.SUITE_NAMES
    )
    p.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on first use and shared: parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
