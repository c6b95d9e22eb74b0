"""One measured pass of a workload, in a fresh interpreter.

    python bench/worker.py pass  --workload ledger|witt_corpus --seed N --out R.json [--trace T.json]
    python bench/worker.py setup --workload ledger|witt_corpus|cli_cold --seed N --out R.json
    python bench/worker.py cli   --op I --out R.json --trace T.json -- <quadalg arguments>

`pass` imports quadalg, builds the inputs (that is the set-up, timed from
the first line of this file), then times each operation and writes every
output to R.json for bench/run.py to check.  An untraced pass also samples
the reference kernel between operations and writes the samples
(refclock.py).  `setup` stops after the set-up.  `cli` runs one `quadalg`
invocation under the profile hook, which is installed before quadalg is
imported.  quadalg comes from PYTHONPATH, which bench/run.py points at the
checkout's src/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _ledger_inputs(seed):
    """The ledger has no seeded input: one operation per check id."""
    from quadalg import verify

    def op(check_id):
        (result,) = verify.run_checks(only=check_id)
        return result.as_dict()

    return [check_id for check_id, _, _ in verify.CHECKS], op


def _witt_inputs(seed):
    from quadalg import forms

    import corpus

    def op(literal):
        q = forms.parse_form(literal)
        inv = forms.invariants(q)
        index, anisotropic = forms.witt_decompose(q)
        return {
            "entries": [str(a) for a in q.entries],
            "dim": inv.dim,
            "disc": inv.disc,
            "signature": inv.signature,
            "index": index,
            "anisotropic": [str(a) for a in anisotropic.entries],
            "isotropic": forms.is_isotropic(q),
            "in_I": [forms.in_power_I(q, n) for n in range(1, 5)],
        }

    return [f.literal for f in corpus.witt_corpus(seed)], op


def _cli_inputs(seed):
    """Set-up of one cold invocation: the CLI's import graph and the list."""
    import quadalg.cli  # noqa: F401

    import corpus

    return corpus.cli_invocations("."), None


WORKLOADS = {"ledger": _ledger_inputs, "witt_corpus": _witt_inputs, "cli_cold": _cli_inputs}


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _run_pass(args):
    inputs, op = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        _write(args.out, {"setup_s": setup_s})
        return 0
    tracer = clock = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.start()
    else:
        from refclock import RefClock

        clock = RefClock()
        clock.sample()
    outputs, op_s = [], []
    for i, x in enumerate(inputs):
        if tracer:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            out = op(x)
        except Exception as exc:  # a failed operation is data for the checker
            out = {"error": f"{type(exc).__name__}: {exc}"}
        op_s.append(time.perf_counter() - t)
        outputs.append(out)
        if clock:
            clock.after(op_s[-1])
    payload = {"setup_s": setup_s, "op_s": op_s, "outputs": outputs}
    if clock:
        clock.finish()
        payload["ref_s"] = clock.samples
    if tracer:
        tracer.stop()
        payload["layers"] = tracer.layer_metrics()
        _dump_spans(tracer, args.trace)
    _write(args.out, payload)
    return 0


def _dump_spans(tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write('{"names": %s, "spans": ' % json.dumps(tracer.names))
        tracer.write_spans(fh)
        fh.write("}")


def _run_cli(args):
    from tracer import Tracer

    tracer = Tracer()
    tracer.begin_op(args.op)
    tracer.start()
    try:
        from quadalg import cli

        return cli.main(args.argv)
    finally:
        tracer.stop()
        _write(
            args.out,
            {"layers": tracer.layer_metrics()},
        )
        _dump_spans(tracer, args.trace)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "setup", "cli"))
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans here (traced mode)")
    parser.add_argument("--op", type=int, default=0, help="operation id of a cli span")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1 :]  # the quadalg arguments
    if args.mode == "cli":
        return _run_cli(args)
    return _run_pass(args)


if __name__ == "__main__":
    sys.exit(main())
