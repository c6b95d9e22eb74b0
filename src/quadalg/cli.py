"""Command-line frontend: form / hermitian / rootsys / cayley / albert /
descend / verify-paper.

Exit codes: 0 success, 1 check failure, 2 usage or parse errors.  The
tool is batch-only; `verify-paper` runs the whole ledger of source
calculations and prints one line per check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import albert, cayley, descent, forms, rootsys, verify
from .scalars import QuadExtScalar, parse_scalar


def _write_json(payload: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
    else:
        print(json.dumps(payload, indent=2))


def _cmd_form(args) -> int:
    try:
        q = forms.parse_form(args.expr, field=args.field)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:  # an entry past the factoring bounds raises here
        inv = forms.invariants_json(q)
        index, anis = forms.witt_decompose(q)
        payload = {
            "literal": forms.form_literal(q),
            "invariants": inv,
            "witt_index": index,
            "anisotropic": forms.form_literal(anis),
            "isotropic": forms.is_isotropic(q),
            "in_I^n": {str(n): forms.in_power_I(q, n) for n in range(1, 5)},
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        print(f"form      {payload['literal']}  (over {args.field})")
        print(f"dim       {inv['dim']}")
        print(f"disc      {inv['disc']}")
        print(f"hasse     {inv['hasse'] or '{}'}")
        print(f"signature {inv['signature']}")
        print(f"witt      {index}H + {payload['anisotropic']}")
        print(f"I^n       {payload['in_I^n']}")
    return 0


def _cmd_hermitian(args) -> int:
    try:
        entries = forms.parse_form(args.entries, field=args.field).entries
        h = forms.HermitianDiagonal(args.field, parse_scalar(args.k), entries)
        q = forms.trace_form(h)
        payload = {
            "hermitian": forms.form_literal(forms.DiagonalForm(args.field, entries)),
            "k": str(h.k),
            "trace_form": forms.form_literal(q),
            "invariants": forms.invariants_json(q),
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        print(f"trace form {payload['trace_form']}")
        print(f"invariants {payload['invariants']}")
    return 0


def _cmd_rootsys(args) -> int:
    try:
        rd = rootsys.build_root_datum(args.type)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"type": rd.label, "cartan": [list(r) for r in rd.cartan]}
    if args.fold is not None:
        try:
            fr = rootsys.fold(rd, name=args.fold)
        except rootsys.FoldingError as exc:
            print(f"folding rejected: {exc}", file=sys.stderr)
            return 2
        mult = rootsys.rost_multiplier(fr.embedding, fr.folded, rd)
        payload.update(
            {
                "folded": fr.folded.label,
                "orbits": [list(o) for o in fr.orbits],
                "orbit_sizes": list(fr.orbit_sizes),
                "multiplier": mult,
                "embedding": [list(r) for r in fr.embedding.matrix],
            }
        )
    elif args.embedding:
        try:
            if args.source is None:
                raise ValueError("--embedding needs --source")
            with open(args.embedding) as fh:
                rows = json.load(fh)
            emb = rootsys.LatticeEmbedding(tuple(tuple(r) for r in rows))
            src = rootsys.build_root_datum(args.source)
            payload["multiplier"] = rootsys.rost_multiplier(emb, src, rd)
            payload["source"] = src.label
        except (ValueError, TypeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


def _parse_triple(values, k=None):
    out = []
    for v in values:
        if k is not None:
            x, _, y = v.partition("+")
            out.append(QuadExtScalar(parse_scalar(x), parse_scalar(y or "0"), k))
        else:
            out.append(parse_scalar(v))
    return tuple(out)


def _cmd_cayley(args) -> int:
    table = cayley.build_cayley_table()
    if args.triple:
        try:
            with open(args.triple) as fh:
                mats = json.load(fh)
            trip = cayley.SimilitudeTriple(
                tuple(
                    cayley.Similitude(
                        tuple(tuple(Fraction(x) for x in row) for row in m)
                    )
                    for m in mats
                )
            )
        except (ValueError, TypeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = {
            "multipliers": [str(m) for m in trip.multipliers],
            "related": cayley.is_related_triple(trip),
        }
    elif args.cocycle:
        try:
            a = _parse_triple(args.cocycle)
            trip = cayley.special_cocycle(a)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = {
            "a": [str(x) for x in a],
            "multipliers": [str(m) for m in trip.multipliers],
            "determinants": [str(t.det()) for t in trip.t],
            "related": cayley.is_related_triple(trip),
            "cocycle_condition": cayley.cocycle_condition_holds(trip),
        }
    else:
        payload = {
            "gram_deviations": [
                {"pair": [i, j], "value": str(got), "expected": str(want)}
                for i, j, got, want in table.gram_deviations()
            ],
            "involution": "u4 <-> u5, others negated",
            "products": {
                f"u{i}u{j}": [str(x) for x in table.products[i - 1][j - 1]]
                for i, j in [(1, 8), (4, 4), (4, 5), (1, 2)]
            },
        }
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_albert(args) -> int:
    if args.element:
        try:
            data = json.loads(args.element)
            x = albert.AlbertElement(
                [parse_scalar(str(e)) for e in data["eps"]],
                [
                    cayley.Octonion([parse_scalar(str(t)) for t in c8])
                    for c8 in data["c"]
                ],
            )
            if args.map:
                with open(args.map) as fh:
                    rows = json.load(fh)
                f = albert.AlbertMap(
                    tuple(tuple(parse_scalar(str(v)) for v in row) for row in rows)
                )
                x = f(x)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        payload = {
            "eps": [str(e) for e in x.eps],
            "c": [[str(t) for t in c.coords] for c in x.c],
            "norm": str(albert.norm_N(x)),
            "trace_T(x,x)": str(albert.trace_form_T(x, x)),
            "sharp": {
                "eps": [str(e) for e in albert.sharp(x).eps],
                "c": [[str(t) for t in c.coords] for c in albert.sharp(x).c],
            },
            "rank_one": albert.sharp(x) == albert.ZERO,
        }
    else:
        e = [albert.e_idem(i) for i in range(3)]
        payload = {
            "T(e0,e0)": str(albert.trace_form_T(e[0], e[0])),
            "e_i x e_{i+1} = e_{i+2}": all(
                albert.cross(e[i], e[(i + 1) % 3]) == e[(i + 2) % 3] for i in range(3)
            ),
            "N(identity)": str(albert.norm_N(albert.IDENTITY)),
        }
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_descend(args) -> int:
    try:
        k = parse_scalar(args.k)
        if args.cocycle:
            with open(args.cocycle) as fh:
                rows = json.load(fh)
            mat = tuple(
                tuple(
                    QuadExtScalar(Fraction(str(x)), Fraction(str(y)), k)
                    for x, y in row
                )
                for row in rows
            )
            z = descent.SemilinearCocycle(k, mat)
            gram = albert.A_GRAM
            if args.gram:
                with open(args.gram) as fh:
                    gram = tuple(
                        tuple(Fraction(str(v)) for v in row) for row in json.load(fh)
                    )
            q = descent.descend_form(gram, z)
            payload = {"descended": forms.form_literal(q)}
        elif args.a is not None:
            rep = descent.rostcalc_report(k, parse_scalar(args.a))
            payload = rep.as_dict()
            payload["table"] = descent.rostcalc_table_rows(k, rep.a)
        else:
            q = descent.twist_a_descend(k)
            payload = {
                "descended": forms.form_literal(q),
                "expected": forms.form_literal(descent.twist_a_expected(k)),
                "isometric": forms.isometric(q, descent.twist_a_expected(k)),
            }
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report is not None:
        _write_json(payload, args.report or None)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_verify(args) -> int:
    try:  # only the P30 overrides can raise: a bad literal, or k a square
        overrides = {}
        if args.k is not None and args.a is not None:
            overrides = {"k": parse_scalar(args.k), "a": parse_scalar(args.a)}
        results = verify.run_checks(only=args.only, overrides=overrides or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results:
        print(f"no check matches {args.only!r}", file=sys.stderr)
        return 2
    print(verify.render_table(results))
    payload = verify.report_json(results)
    if args.json:
        _write_json(payload, args.json)
    failed = payload["summary"]["fail"]
    oq = payload["summary"]["open-question"]
    print(
        f"{payload['summary']['pass']} pass, {failed} fail, {oq} open-question"
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description=(
            "Exact verification of Witt-ring, Cayley/Albert, root-system "
            "folding and Galois-descent computations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form", help="invariants and decomposition of a form")
    p.add_argument("expr", help="e.g. '<1,-1>', '<<-1,-1>>', '7H + <1>', '2*<3,5>'")
    p.add_argument("--field", choices=("Q", "R"), default="Q")
    p.add_argument("--json", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_form)

    p = sub.add_parser("hermitian", help="trace form of a hermitian diagonal")
    p.add_argument("entries", help="diagonal entries, e.g. '<1,-1,2>'")
    p.add_argument("--k", required=True, help="K = F(sqrt k)")
    p.add_argument("--field", choices=("Q", "R"), default="Q")
    p.add_argument("--json", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_hermitian)

    p = sub.add_parser("rootsys", help="root data, foldings, Rost multipliers")
    p.add_argument("--type", required=True, help="e.g. E6, D4, A5")
    p.add_argument(
        "--fold", nargs="?", const="", default=None, help="fold (name: triality)"
    )
    p.add_argument("--embedding", help="JSON file with an integer matrix")
    p.add_argument("--source", help="source type for --embedding")
    p.add_argument("--json", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_rootsys)

    p = sub.add_parser("cayley", help="the calibrated table and triples")
    p.add_argument("--triple", help="JSON file with three 8x8 matrices")
    p.add_argument("--cocycle", nargs=3, metavar=("A0", "A1", "A2"))
    p.add_argument("--json", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_cayley)

    p = sub.add_parser("albert", help="Albert-algebra evaluations")
    p.add_argument(
        "--element", help='JSON {"eps":[..3..], "c":[[..8..],[..8..],[..8..]]}'
    )
    p.add_argument(
        "--map",
        help="JSON 27x27 row-major matrix applied to the element first "
        "(coordinates: eps0,eps1,eps2, then c0,c1,c2 in u1..u8)",
    )
    p.add_argument("--json", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_albert)

    p = sub.add_parser("descend", help="Galois descent computations")
    p.add_argument("--k", required=True)
    p.add_argument("--a", default=None)
    p.add_argument("--cocycle", help="JSON matrix with [x, y] entries (x+y sqrt k)")
    p.add_argument("--gram", help="JSON rational Gram matrix (default: the A-form)")
    p.add_argument("--report", nargs="?", const="", default=None)
    p.set_defaults(fn=_cmd_descend)

    p = sub.add_parser("verify-paper", help="run the full check ledger")
    p.add_argument("--only", default=None, help="run a single check (id)")
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.add_argument("--k", default=None)
    p.add_argument("--a", default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
