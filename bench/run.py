"""The quadalg benchmark: one command, three workloads, end-to-end metrics
by default and per-layer metrics with --trace 1.

    python3 bench/run.py --workload ledger|witt_corpus|cli_cold --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in src/ (which
need not be installed) and prints one JSON object as its last line.  Every
pass runs in a fresh interpreter, one child process at a time; see
bench/README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import refclock  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402

# A run does a fixed number of whole passes (rounds of the invocation list
# for cli_cold): --seconds divided by the workload's nominal pass length on
# the reference box, and at least MIN_PASSES.  The count depends only on
# --seconds, so the median-pass estimator is the same in every run.
PASS_S = {"ledger": 12.0, "witt_corpus": 8.0, "cli_cold": 8.0}
MIN_PASSES = 2
SETUP_SAMPLES = 15  # fresh-interpreter set-ups per run, spread over the run
IMPORT_SAMPLES = 3  # -X importtime interpreters per traced run
BUDGET_S = 150.0  # start no pass that would end after this


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no result line is printed)."""


# --------------------------------------------------------------------------
# child processes


class Child:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, workdir: Path, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        out_path, err_path = workdir / "child.out", workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                status, rusage = self._wait(proc, deadline)
            except BaseException:  # the deadline, or SIGTERM: no child outlives the run
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            self.wall_s = time.perf_counter() - t
        self.returncode = os.waitstatus_to_exitcode(status)
        proc.returncode = self.returncode
        self.maxrss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()

    @staticmethod
    def _wait(proc, deadline):
        """Reap the child with its own resource usage (os.wait4)."""
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, rusage
            if time.monotonic() > deadline:
                raise BenchError(f"child {proc.args} did not finish in time")
            time.sleep(0.002)


def _worker(mode, workload, seed, out: Path, *extra):
    return [sys.executable, str(BENCH / "worker.py"), mode, "--workload", workload,
            "--seed", str(seed), "--out", str(out), *extra]


def _run_worker(argv, workdir, deadline) -> dict:
    child = Child(argv, workdir, deadline)
    if child.returncode != 0:
        raise BenchError(f"{argv[2]} child exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    result = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
    result["maxrss_mb"] = child.maxrss_mb
    return result


# --------------------------------------------------------------------------
# workloads


class Run:
    def __init__(self, args):
        self.args = args
        self.t_start = time.monotonic()
        self.deadline = self.t_start + 170.0
        self.workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def n_passes(self) -> int:
        return max(MIN_PASSES, round(self.args.seconds / PASS_S[self.args.workload]))

    def measured(self, one_pass, own_setups: bool):
        """n_passes() whole passes, with set-up-only interpreters between
        them, so that the set-up samples spread over the whole run rather
        than one stretch of it.  Never starts a pass that would overrun the
        budget.  Returns the passes and the set-up samples (a pass's own
        set-up is one sample when `own_setups`)."""
        n = self.n_passes()
        extra = SETUP_SAMPLES - (n if own_setups else 0)
        passes, setups = [], []
        for i in range(n):
            setups += self.setups(extra * (i + 1) // (n + 1) - extra * i // (n + 1))
            if passes and self.elapsed() + passes[-1]["wall_s"] > BUDGET_S:
                break
            t = self.elapsed()
            passes.append(one_pass(i))
            passes[-1]["wall_s"] = self.elapsed() - t
            if own_setups:
                setups.append(passes[-1]["setup_s"])
        setups += self.setups(SETUP_SAMPLES - len(setups))
        return passes, setups

    def setups(self, count: int) -> list[float]:
        out = self.workdir / "setup.json"
        argv = _worker("setup", self.args.workload, self.args.seed, out)
        return [_run_worker(argv, self.workdir, self.deadline)["setup_s"] for _ in range(count)]

    # -- ledger and witt_corpus: in-process operations ---------------------
    def one_pass(self, i: int, trace_path=None) -> dict:
        """One whole pass in a fresh interpreter."""
        out = self.workdir / f"pass{i}.json"
        extra = ("--trace", str(trace_path)) if trace_path else ()
        return _run_worker(_worker("pass", self.args.workload, self.args.seed, out, *extra), self.workdir, self.deadline)

    def check_passes(self, runs, inputs) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        problems: list[str] = []
        for r in runs:
            outs = r["outputs"]
            attempted += len(outs)
            if self.args.workload == "ledger":
                failed += sum(checks.ledger_failed(o) for o in outs)
                problems += checks.ledger_problems(outs)
            else:
                for form, o in zip(inputs, outs, strict=True):
                    if checks.witt_failed(o):
                        failed += 1
                    else:
                        problems += [f"{form.literal}: {p}" for p in checks.witt_problems(form, o)]
        return attempted, failed, problems

    def inputs(self):
        return corpus.witt_corpus(self.args.seed) if self.args.workload == "witt_corpus" else None

    def in_process(self) -> dict:
        runs, setups = self.measured(self.one_pass, own_setups=True)
        attempted, failed, problems = self.check_passes(runs, self.inputs())
        return self.result(
            problems, attempted, failed,
            ops_per_s=_ops_per_s(runs),
            setup_s=_setup_s(setups, runs),
            peak_rss_mb=statistics.median(r["maxrss_mb"] for r in runs),
        )

    def in_process_traced(self) -> dict:
        ref = self.one_pass(0)
        traced = self.one_pass(1, trace_path=self.workdir / "trace.json")
        attempted, failed, problems = self.check_passes([ref, traced], self.inputs())
        layers = dict(traced["layers"])
        return self.result(
            problems, attempted, failed,
            **self.per_layer(layers, sum(traced["op_s"]) / sum(ref["op_s"])),
        )

    # -- cli_cold: one fresh interpreter per operation ----------------------
    def cli_round(self, invocations, traced: bool) -> dict:
        """Run the list once.  Returns the rows, one per invocation:
        (seconds, peak MB, failed, problems, layer metrics or None); an
        untraced round also samples the reference kernel between
        invocations, in this process (refclock.py)."""
        rows = []
        clock = None if traced else refclock.RefClock()
        if clock:
            clock.sample()
        for i, inv in enumerate(invocations):
            if traced:
                res = self.workdir / f"cli{i}.json"
                argv = [sys.executable, str(BENCH / "worker.py"), "cli", "--op", str(i), "--out", str(res),
                        "--trace", str(self.workdir / f"trace{i}.json"), "--", *inv.argv]
            else:
                argv = [sys.executable, "-m", "quadalg.cli", *inv.argv]
            child = Child(argv, self.workdir, self.deadline)
            failed, problems = _judge(inv, child, self.workdir)
            layers = json.loads(res.read_text())["layers"] if traced else None
            rows.append((child.wall_s, child.maxrss_mb, failed, problems, layers))
            if clock:
                clock.after(child.wall_s)
        rnd = {"rows": rows, "op_s": [row[0] for row in rows]}
        if clock:
            clock.finish()
            rnd["ref_s"] = clock.samples
        return rnd

    def cli_invocations(self):
        (self.workdir / "embedding.json").write_text(json.dumps(corpus.EMBEDDING))
        return corpus.cli_invocations(str(self.workdir))

    def cli(self) -> dict:
        invocations = self.cli_invocations()
        rounds, setups = self.measured(lambda i: self.cli_round(invocations, traced=False), own_setups=False)
        rows = [row for rnd in rounds for row in rnd["rows"]]
        return self.result(
            [p for row in rows for p in row[3]], len(rows), sum(row[2] for row in rows),
            ops_per_s=_ops_per_s(rounds),
            setup_s=_setup_s(setups, rounds),
            peak_rss_mb=statistics.median(max(row[1] for row in rnd["rows"]) for rnd in rounds),
        )

    def cli_traced(self) -> dict:
        invocations = self.cli_invocations()
        ref = self.cli_round(invocations, traced=False)["rows"]
        traced = self.cli_round(invocations, traced=True)["rows"]
        layers: dict = {}
        for row in traced:
            for key, value in row[4].items():
                layers[key] = layers.get(key, 0) + value
        rows = ref + traced
        overhead = sum(row[0] for row in traced) / sum(row[0] for row in ref)
        return self.result(
            [p for row in rows for p in row[3]], len(rows), sum(row[2] for row in rows),
            **self.per_layer(layers, overhead),
        )

    # -- per-layer metrics ---------------------------------------------------
    def per_layer(self, layers: dict, overhead: float) -> dict:
        products = layers.pop("exactmat.products")
        useful = layers.pop("exactmat.useful_products")
        out = dict(layers)
        out["exactmat.useful_mul_ratio"] = useful / products if products else 0.0
        out["trace.overhead_ratio"] = overhead
        out.update(self.import_times())
        return out

    def import_times(self) -> dict:
        quadalg, sympy = [], []
        for _ in range(IMPORT_SAMPLES):
            child = Child([sys.executable, "-X", "importtime", "-c", "import quadalg.cli"], self.workdir, self.deadline)
            if child.returncode != 0:
                raise BenchError(f"importing quadalg.cli failed: {child.stderr.strip()[-2000:]}")
            cumulative = _importtime(child.stderr)
            quadalg.append(cumulative.get("quadalg", 0) + cumulative.get("quadalg.cli", 0))
            sympy.append(cumulative.get("sympy", 0))
        return {"import.quadalg_s": statistics.median(quadalg), "import.sympy_s": statistics.median(sympy)}

    # -- the result line -------------------------------------------------------
    def result(self, problems, attempted, failed, **metrics) -> dict:
        for p in problems[:20]:
            print(f"wrong output: {p}", file=sys.stderr)
        units = METRIC_UNITS
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def _judge(inv, child: Child, workdir: Path) -> tuple[bool, list[str]]:
    """(failed, wrong-output problems) for one invocation."""
    if inv.malformed:
        return not checks.cli_malformed_ok(child.returncode, child.stderr), []
    if child.returncode != 0:
        return True, []
    try:
        return False, [f"{inv.name}: {p}" for p in checks.cli_answer_problems(inv.name, child.stdout, str(workdir))]
    except (ValueError, KeyError, OSError) as exc:
        return False, [f"{inv.name}: unreadable output ({type(exc).__name__}: {exc})"]


def _ops_per_s(passes: list[dict]) -> float:
    """Operations of one pass per second of the median pass, each pass's
    time scaled by its reference-kernel samples (refclock.py)."""
    return len(passes[0]["op_s"]) / statistics.median(sum(p["op_s"]) * refclock.factor(p["ref_s"]) for p in passes)


def _setup_s(setups: list[float], passes: list[dict]) -> float:
    """The median set-up, scaled by all the run's reference-kernel samples."""
    return statistics.median(setups) * refclock.factor([t for p in passes for t in p["ref_s"]])


def _importtime(stderr: str) -> dict:
    """Cumulative seconds of each module's first import in -X importtime
    output, at any nesting depth."""
    out = {}
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            out.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return out


def _metric_units() -> dict:
    units = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units.update({"exactmat.useful_mul_ratio": "ratio", "trace.overhead_ratio": "ratio",
                  "import.quadalg_s": "s", "import.sympy_s": "s"})
    return units


METRIC_UNITS = _metric_units()


def _terminated(signum, frame):
    raise BenchError("terminated by SIGTERM")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ledger", "witt_corpus", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadalg" / "__init__.py").is_file():
        print(f"no quadalg package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminated)
    try:
        compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
        if compiled.returncode != 0:
            raise BenchError(f"compileall failed: {compiled.stdout}{compiled.stderr}")
        run = Run(args)
        if args.workload == "cli_cold":
            result = run.cli_traced() if args.trace else run.cli()
        else:
            result = run.in_process_traced() if args.trace else run.in_process()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
