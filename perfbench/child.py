"""Work the benchmark runs in a fresh interpreter, one job per process.

    python perfbench/child.py import
        seconds to import boxnet.cli
    python perfbench/child.py series chain K
        seconds to induce and re-validate the PR-box chain with K boxes
    python perfbench/child.py series lp NAME
        seconds for one is_local question of the LP scaling series
    python perfbench/child.py inproc SEED TRACE OUT
        the cli-fixtures command list run through boxnet.cli.main in this
        process, traced when TRACE is 1; results go to the JSON file OUT

Each job prints one JSON object on its last line of output.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

from common import OUT, bootstrap


def job_import() -> dict:
    t0 = perf_counter()
    import boxnet.cli  # noqa: F401
    return {"seconds": perf_counter() - t0}


LP_SERIES = {
    # name: (parties, input sizes, output sizes); every point is nonlocal
    # at visibility 3/4, where already its two-input restriction is.
    "tri-2settings": (("A", "B", "C"), (2, 2, 2), (2, 2, 2)),
    "tri-3settings": (("A", "B", "C"), (3, 3, 3), (2, 2, 2)),
    "bi-3in3out": (("A", "B"), (3, 3), (3, 3)),
}


SERIES_REPEATS = 3
SERIES_BUDGET_S = 10


def job_series(kind: str, arg: str) -> dict:
    """Median time of up to SERIES_REPEATS runs of one series point,
    fewer when the next run would take the point past SERIES_BUDGET_S."""
    import inputs
    import workloads
    from boxnet import decompose

    if kind == "chain":
        op = workloads.chain_op(inputs.chain_specs(0, (int(arg),))[int(arg)])
    else:
        parties, ins, outs = LP_SERIES[arg]
        ideal = inputs.z3_box() if outs == (3, 3) else inputs.pr_ab_uniform_c(ins)
        spec = inputs.noisy_box(arg, parties, ins, outs, ideal, Fraction(3, 4))

        def run():
            return decompose.is_local(workloads.make_resource(spec))

        def check(res):
            return [] if not res.local else [f"{arg}: expected nonlocal"]

        op = workloads.Op(arg, run, check)
    times, problems = [], []
    while len(times) < SERIES_REPEATS and sum(times) + max(times, default=0) < SERIES_BUDGET_S:
        t0 = perf_counter()
        result = op.run()
        times.append(perf_counter() - t0)
        problems += op.check(result)
    return {"seconds": statistics.median(times), "runs": len(times), "problems": problems}


def run_commands(seed: int) -> tuple[float, list]:
    """Run the cli-fixtures command list in this process; return the
    total seconds inside ``cli.main`` and, per command, its problems and
    whether it checks the exit-code contract rather than a result."""
    import workloads
    from boxnet import cli

    goldens = json.loads((OUT.parent / "goldens.json").read_text())["cli-fixtures"]["commands"]
    total, checked = 0.0, []
    with tempfile.TemporaryDirectory(prefix="inproc-", dir=OUT) as tmp:
        workloads.write_malformed(tmp)
        for argv, expected_rc, out_file in workloads.cli_commands(seed, tmp):
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as e:
                    rc = e.code if isinstance(e.code, int) else 1
                except Exception as e:  # an uncaught error exits 1 from a real process
                    print(f"Traceback: {e!r}", file=sys.stderr)
                    rc = 1
            total += perf_counter() - t0
            key = workloads.command_key(argv, tmp)
            outcome = workloads.command_outcome(rc, out.getvalue(), out_file, tmp)
            checked.append({"key": key, "contract": expected_rc is not None,
                            "problems": workloads.command_problems(
                                key, expected_rc, outcome, err.getvalue(), goldens)})
    return total, checked


def job_inproc(seed: int, trace: bool, out_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    if trace:
        import boxnet.cli  # noqa: F401  (load every module before patching)
        tracer.install()
        tracer.on = True
    seconds, checked = run_commands(seed)
    tracer.on = False
    result = {"seconds": seconds, "commands": checked}
    if trace:
        result["summary"] = tracer.summary()
        tracer.write(out_path + ".spans.jsonl")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return {"seconds": seconds}


def main(argv) -> int:
    bootstrap()
    job = argv[0]
    if job == "import":
        result = job_import()
    elif job == "series":
        result = job_series(argv[1], argv[2])
    elif job == "inproc":
        result = job_inproc(int(argv[1]), argv[2] == "1", argv[3])
    else:
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
