"""Command-line frontend: form / hermitian / rootsys / cayley / albert /
descend / verify-paper.

Exit codes: 0 success, 1 when a claim fails (a check of `verify-paper`,
a claim of `descend --k`, of `descend --a` or of `cayley --cocycle`, all
judged by the ledger's one rule), 2 usage or input errors, and 141
(128 + SIGPIPE, nothing on stderr) when standard output closes early, as in
`quadalg form ... | head -c 1`.  `main` is the one error boundary: a
ValueError (a bad literal, malformed JSON, a folding or hypothesis the
library rejects) or another OSError (a file that cannot be read or
written) becomes one stderr line `error: ...` and exit 2.  Any other
exception is a program fault and keeps its traceback.  An argument that
starts with "-" and a digit is a value, so negative values need no "--"
(`quadalg form "-1/2*<<5>>"`).  The tool is batch-only; `verify-paper`
runs the whole ledger of source calculations and prints one line per
check.  Each subcommand imports only the modules it uses, when it runs,
so a call pays at start-up for its own subcommand and no other.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .scalars import QuadExtScalar, parse_scalar

# numbers keep their decimal text, so that every entry reads exactly
_JSON = json.JSONDecoder(parse_float=str)


def _read_json(path: str):
    with open(path) as fh:
        return _JSON.decode(fh.read())


def _scalar(x):
    """A JSON number or string as an exact scalar; true, false, null,
    lists and objects are rejected as bad literals."""
    return parse_scalar(str(x))


def _matrix(rows, entry=_scalar) -> tuple:
    """A JSON matrix, `entry` applied to each element; anything but a
    nonempty list of nonempty lists of one length is a ValueError."""
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows)
    ):
        raise ValueError("expected a JSON matrix: nonempty rows of one length")
    return tuple(tuple(map(entry, row)) for row in rows)


def _write_json(payload: dict, path: str | None) -> None:
    """The payload as indented JSON and a newline, to `path` or stdout."""
    if path:
        with open(path, "w") as fh:
            print(json.dumps(payload, indent=2), file=fh)
    else:
        print(json.dumps(payload, indent=2))


def _cmd_form(args) -> int:
    from . import forms

    q = forms.parse_form(args.expr, field=args.field)
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
    from . import forms

    entries = forms.parse_form(args.entries, field=args.field).entries
    h = forms.HermitianDiagonal(args.field, parse_scalar(args.k), entries)
    q = forms.trace_form(h)
    payload = {
        "hermitian": forms.form_literal(forms.DiagonalForm(args.field, entries)),
        "k": str(h.k),
        "trace_form": forms.form_literal(q),
        "invariants": forms.invariants_json(q),
    }
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        print(f"trace form {payload['trace_form']}")
        print(f"invariants {payload['invariants']}")
    return 0


def _cmd_rootsys(args) -> int:
    from . import rootsys
    from .exactmat import dense, freeze

    if args.source is not None and not args.embedding:
        raise ValueError("--source needs --embedding")
    if args.fold is not None and args.embedding:
        raise ValueError("--fold and --embedding exclude each other")
    rd = rootsys.build_root_datum(args.type)
    payload = {"type": rd.label, "cartan": [list(r) for r in dense(rd.cartan)]}
    if args.fold is not None:
        fr = rootsys.fold(rd, name=args.fold)
        mult = rootsys.rost_multiplier(fr.embedding, fr.folded, rd)
        payload.update(
            {
                "folded": fr.folded.label,
                "orbits": [list(o) for o in fr.orbits],
                "orbit_sizes": list(fr.orbit_sizes),
                "multiplier": mult,
                "embedding": [list(r) for r in dense(fr.embedding.matrix)],
            }
        )
    elif args.embedding:
        if args.source is None:
            raise ValueError("--embedding needs --source")
        emb = rootsys.LatticeEmbedding(freeze(_matrix(_read_json(args.embedding))))
        src = rootsys.build_root_datum(args.source)
        payload["multiplier"] = rootsys.rost_multiplier(emb, src, rd)
        payload["source"] = src.label
    if args.json is not None:
        _write_json(payload, args.json or None)
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


def _cmd_cayley(args) -> int:
    from . import cayley
    from .exactmat import freeze

    if args.triple and args.cocycle:
        raise ValueError("--triple and --cocycle exclude each other")
    code = 0
    if args.triple:
        mats = _read_json(args.triple)
        if not isinstance(mats, list):
            raise ValueError("--triple needs a JSON list of three 8x8 matrices")
        trip = cayley.SimilitudeTriple(
            tuple(cayley.Similitude(freeze(_matrix(m))) for m in mats)
        )
        payload = {
            "multipliers": [str(m) for m in trip.multipliers],
            "related": cayley.is_related_triple(trip),
        }
    elif args.cocycle:
        from . import verify

        a = tuple(map(parse_scalar, args.cocycle))
        trip = cayley.special_cocycle(a)
        status, verdict = verify.cocycle_verdict(trip)
        payload = {
            "a": [str(x) for x in a],
            "multipliers": [str(m) for m in trip.multipliers],
            "determinants": [str(t.det()) for t in trip.t],
            "related": cayley.is_related_triple(trip),
            "cocycle_condition": verdict["cocycle_condition"],
        }
        code = 1 if status == "fail" else 0
    else:
        from . import verify

        table = cayley.build_cayley_table()
        payload = {
            "gram_deviations": cayley.deviation_records(table.gram_deviations()),
            "involution": verify.table_verdict(table)[1]["bar(u1..u8)"],
            "products": {
                f"u{i}u{j}": [str(x) for x in (cayley.u(i) * cayley.u(j)).coords]
                for i, j in [(1, 8), (4, 4), (4, 5), (1, 2)]
            },
        }
    _write_json(payload, args.json or None)
    return code


def _cmd_albert(args) -> int:
    from . import albert, cayley
    from .exactmat import freeze

    if args.map is not None and not args.element:
        raise ValueError("--map needs --element")
    if args.element:
        data = _JSON.decode(args.element)
        if not (isinstance(data, dict) and "eps" in data and "c" in data):
            raise ValueError('--element needs a JSON object {"eps": .., "c": ..}')
        (eps,) = _matrix([data["eps"]])
        x = albert.element(eps, [cayley.Octonion(c) for c in _matrix(data["c"])])
        if args.map:
            x = albert.AlbertMap(freeze(_matrix(_read_json(args.map))))(x)
        sharp = albert.sharp(x)
        parts = lambda y: {
            "eps": [str(e) for e in y.eps], "c": [[str(t) for t in c.coords] for c in y.c]
        }
        payload = {
            **parts(x),
            "norm": str(albert.norm_N(x)),
            "trace_T(x,x)": str(albert.trace_form_T(x, x)),
            "sharp": parts(sharp),
            "rank_one": sharp == albert.ZERO,
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
    _write_json(payload, args.json or None)
    return 0


def _cmd_descend(args) -> int:
    from . import albert, descent, forms
    from .exactmat import freeze

    if args.gram and not args.cocycle:
        raise ValueError("--gram needs --cocycle")
    if args.cocycle and args.a is not None:
        raise ValueError("--cocycle and --a exclude each other")
    k = parse_scalar(args.k)
    code = 0
    if args.cocycle:

        def x_plus_y_sqrt_k(xy):
            if not (isinstance(xy, list) and len(xy) == 2):
                raise ValueError(f"a cocycle entry is a pair [x, y], not {xy!r}")
            return QuadExtScalar(_scalar(xy[0]), _scalar(xy[1]), k)

        z = descent.SemilinearCocycle(
            k, freeze(_matrix(_read_json(args.cocycle), x_plus_y_sqrt_k))
        )
        gram = freeze(_matrix(_read_json(args.gram))) if args.gram else albert.A_GRAM
        payload = {"descended": forms.form_literal(descent.descend_form(gram, z))}
    elif args.a is not None:
        from . import verify

        a = parse_scalar(args.a)
        status, payload = verify.rostcalc_verdict(k, a)
        table_status, payload["table"] = verify.rostcalc_table_verdict(k, a)
        code = 1 if "fail" in (status, table_status) else 0
    else:
        from . import verify

        status, payload = verify.twista_verdict(k)
        code = 1 if status == "fail" else 0
    _write_json(payload, args.report or None)
    return code


def _cmd_verify(args) -> int:
    from . import verify

    timings = {} if args.timings else None
    results = verify.run_checks(only=args.only, timings=timings)
    if not results:
        raise ValueError(f"no check matches {args.only!r}")
    payload = verify.report_json(results, timings)
    if args.json:  # written first: a failed write leaves stdout empty
        _write_json(payload, args.json)
    print(verify.render_table(results, timings))
    failed = payload["summary"]["fail"]
    oq = payload["summary"]["open-question"]
    print(
        f"{payload['summary']['pass']} pass, {failed} fail, {oq} open-question"
    )
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with "-" and a digit, such as
    "-1/2" or "-1/2*<<5>>", as a value, where argparse's own (private)
    matcher takes only integers and decimals.  No option starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument(
        "--only",
        default=None,
        help="run the checks whose id or location word matches (e.g. P14, cayley, rostcalc)",
    )
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.add_argument(
        "--timings",
        action="store_true",
        help="add each check's wall time (elapsed_s) to the table and the report",
    )
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone; send what is left to devnull, so that the
        # flush at interpreter exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
