"""boxnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; boxnet is imported from ``src/``.
Workloads: network-sweep, pr-chain, locality-lp, cli-fixtures (see
README.md).  One caller runs each workload's operations one at a time,
repeating whole passes until S seconds of measurement have passed.
Every result is checked exactly; failures are counted, never fatal.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json; work done in this process is timed
at a reference host speed (speed.py).  With ``--trace 1`` the run also
times one traced pass (and, for pr-chain and locality-lp, the scaling
series) and reports the per-layer metrics instead.  The full report,
with sample counts, CPU time and machine details, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from common import OUT, bootstrap, child_env, cpu_seconds, environment, load_goldens, \
    peak_rss_mb, percentile
from speed import Speedometer

SETUP_REPEATS = 5
# Scaling series: point -> time cap in seconds, so that a traced run ends
# within 180 s.  tri-3settings and bi-3in3out each take minutes at the
# baseline, so there they are always written as capped.
CHAIN_CAPS_S = {1: 60, 2: 60, 3: 60, 4: 60, 5: 60, 6: 60}
LP_CAPS_S = {"tri-2settings": 20, "tri-3settings": 20, "bi-3in3out": 20}
INPROC_CAP_S = 60


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []

    def record(self, op, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.incorrect += not op.contract
            self.problems.extend(problems)

    def fail(self, problems) -> None:
        """A whole-run check failed (inputs or results differ from the record)."""
        self.failed += 1
        self.incorrect += 1
        self.problems.extend(problems)


def run_op(op, tracer=None):
    """Time one operation; return (start, wall seconds, CPU seconds, problems)."""
    if tracer is not None:
        tracer.on = True
    t0, c0 = perf_counter(), cpu_seconds()
    try:
        result = op.run()
        problems = None
    except Exception:
        problems = [f"{op.label}: raised {traceback.format_exc(limit=3)}"]
    seconds, cpu = perf_counter() - t0, cpu_seconds() - c0
    if tracer is not None:
        tracer.on = False
    if problems is None:
        try:
            problems = op.check(result)
        except Exception:
            problems = [f"{op.label}: check raised {traceback.format_exc(limit=3)}"]
    return t0, seconds, cpu, problems


def run_passes(wl, seconds: float, tally: Tally, max_passes=None, tracer=None,
               speed=None) -> dict:
    """Whole passes over the workload's operations until ``seconds`` of
    wall time have gone by (at least one pass).  With a speedometer, each
    operation's time is also given at the reference speed ("scaled")."""
    spans, cpu_samples, pass_ends, cpu_passes = [], [], [], []
    start = perf_counter()
    with speed.around() if speed else contextlib.nullcontext():
        while True:
            cpu_total = 0.0
            for op in wl.ops:
                if speed:
                    speed.due()
                t0, dt, cpu, problems = run_op(op, tracer)
                spans.append((t0, dt))
                cpu_samples.append(cpu)
                cpu_total += cpu
                tally.record(op, problems)
            pass_ends.append(len(spans))
            cpu_passes.append(cpu_total)
            if max_passes and len(pass_ends) >= max_passes:
                break
            if perf_counter() - start >= seconds:
                break

    def by_pass(per_op):
        return [sum(per_op[a:b]) for a, b in zip([0, *pass_ends], pass_ends)]

    samples = [dt for _t0, dt in spans]
    measured = {"samples": samples, "passes": by_pass(samples), "cpu_samples": cpu_samples,
                "cpu_passes": cpu_passes, "wall_s": perf_counter() - start}
    if speed:
        scaled = [speed.scaled(t0, t0 + dt) for t0, dt in spans]
        measured.update(scaled_samples=scaled, scaled_passes=by_pass(scaled))
    return measured


def child(args, timeout):
    """Run perfbench/child.py in a fresh interpreter; its last output line
    as JSON, or None when it ran past ``timeout`` seconds (it is killed)."""
    try:
        proc = subprocess.run([sys.executable, str(OUT.parent / "child.py"), *args],
                              capture_output=True, text=True, timeout=timeout,
                              env=child_env())
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def series(kind, caps: dict, tally: Tally) -> list[dict]:
    """One child process per point; a point past its cap reads "> cap"."""
    out = []
    for p, cap in caps.items():
        res = child(["series", kind, str(p)], cap)
        if res is None:
            out.append({"point": p, "seconds": f"> {cap}"})
            continue
        tally.attempted += 1
        if res["problems"]:
            tally.fail(res["problems"])
        out.append({"point": p, "seconds": res["seconds"], "runs": res["runs"]})
    return out


def growth(points: list[dict]) -> dict:
    """Step ratios t(k)/t(k-1) between measured points."""
    t = {p["point"]: p["seconds"] for p in points if isinstance(p["seconds"], float)}
    return {f"{k}/{k - 1}": t[k] / t[k - 1] for k in t if k - 1 in t and t[k - 1] > 0}


def end_to_end(name, measured, setup, tally) -> tuple[dict, list[str]]:
    """The gated metrics, and the human-readable lines: each workload's own
    names for them, sample counts beside percentiles, and the raw wall and
    CPU times.  Work in this process is timed at the reference speed of
    speed.py; cli-fixtures' commands, in child processes, by their CPU time."""
    if "scaled_samples" in measured:
        per_op, per_pass = measured["scaled_samples"], measured["scaled_passes"]
    else:
        per_op, per_pass = measured["cpu_samples"], measured["cpu_passes"]
    ms = sorted(s * 1000 for s in per_op)
    p50, pass_s = statistics.median(ms), statistics.median(per_pass)
    n, n_passes = len(ms), len(measured["passes"])
    metrics = {
        "setup_s": {"value": setup["scaled_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
    }
    lines = [f"setup_s {setup['scaled_s']:.4f} s (median of {SETUP_REPEATS} fresh imports "
             f"of boxnet plus median of {SETUP_REPEATS} set-ups; raw {setup['raw_s']:.4f} s)",
             f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB",
             f"failed_frac {tally.failed / max(tally.attempted, 1):.4f} "
             f"({tally.failed} of {tally.attempted} operations)"]
    if name == "network-sweep":
        beyond = n - int(-(-n * 98 // 100))
        lines += [f"networks_per_s {n * 1000 / sum(ms):.2f} 1/s ({n} networks)",
                  f"network_p50_ms {p50:.3f} ms (n={n})",
                  f"network_p98_ms {percentile(ms, 98):.3f} ms (n={n}, {beyond} beyond)"]
    elif name == "pr-chain":
        lines += [f"chain_s {pass_s:.4f} s (median of {n_passes} k=5 chains)"]
    elif name == "locality-lp":
        lines += [f"locality_s {pass_s:.4f} s (median of {n_passes} passes)",
                  f"locality_p50_ms {p50:.3f} ms (n={n} questions)"]
    elif name == "cli-fixtures":
        lines += [f"cli_total_s {statistics.median(measured['passes']):.4f} s wall "
                  f"(median of {n_passes} passes)",
                  f"cli_p50_ms {statistics.median(measured['samples']) * 1000:.3f} ms wall "
                  f"(n={n} commands)"]
    lines += [f"pass_s {pass_s:.4f} s (median of {n_passes} passes; raw wall "
              f"{statistics.median(measured['passes']):.4f} s, CPU "
              f"{statistics.median(measured['cpu_passes']):.4f} s)",
              f"op_p50_ms {p50:.3f} ms (n={n}; raw wall "
              f"{statistics.median(measured['samples']) * 1000:.3f} ms, CPU "
              f"{statistics.median(measured['cpu_samples']) * 1000:.3f} ms)"]
    return metrics, lines


def per_layer(wl, seconds, tally, report) -> dict:
    import tracing

    from workloads import Op

    base = run_passes(wl, seconds, tally)
    report["untraced"] = {"passes": base["passes"], "wall_s": base["wall_s"]}
    layers = {"network.chain_growth": 0.0, "cli.import_s": 0.0, "cli.inproc_s": 0.0}
    if wl.name == "cli-fixtures":
        # Commands run in child processes, so the traced pass runs them
        # in-process, in a fresh interpreter each for tracing off and on.
        runs = {}
        for flag in ("0", "1"):
            path = OUT / f"inproc-{wl.seed}-trace{flag}.json"
            path.unlink(missing_ok=True)
            if child(["inproc", str(wl.seed), flag, str(path)], INPROC_CAP_S) is None:
                # Nothing was measured: the layers read 0 and the run fails.
                tally.fail([f"in-process command list (trace {flag}) ran past "
                            f"{INPROC_CAP_S} s"])
                runs[flag] = {"seconds": 0.0, "commands": [], "summary": tracing.Tracer().summary()}
                continue
            runs[flag] = json.loads(path.read_text())
            for cmd in runs[flag]["commands"]:
                tally.record(Op(cmd["key"], None, None, cmd["contract"]), cmd["problems"])
        summary = runs["1"]["summary"]
        layers["cli.import_s"] = statistics.median(report["setup_s"]["imports"])
        layers["cli.inproc_s"] = runs["0"]["seconds"]
        overhead = runs["1"]["seconds"] / runs["0"]["seconds"] - 1 if runs["0"]["seconds"] else 0.0
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, 0, tally, max_passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl")
        overhead = traced["passes"][0] / statistics.median(base["passes"]) - 1
        if wl.name == "pr-chain":
            points = series("chain", CHAIN_CAPS_S, tally)
            steps = growth(points)
            report["series"] = {"pr-chain": points, "growth": steps}
            layers["network.chain_growth"] = steps.get("5/4", 0.0)
        elif wl.name == "locality-lp":
            report["series"] = {"is_local": series("lp", LP_CAPS_S, tally)}
    report["trace_summary"] = summary
    layers = {**tracing.layer_metrics(summary), **layers, "trace.overhead_frac": overhead}
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    wall0, cpu0 = perf_counter(), cpu_seconds()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, load_goldens())
    tally = Tally()
    # Readings in this process do not track the speed of child processes.
    speed = Speedometer() if wl.in_process else None
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(child(["import"], 120)["seconds"])
        with speed.around() if speed else contextlib.nullcontext():
            t0 = perf_counter()
            wl.setup()
            t1 = perf_counter()
        setups.append((t1 - t0, speed.scaled(t0, t1) if speed else t1 - t0))
    setup = {"imports": imports, "repeats": setups}
    for key, i in (("raw_s", 0), ("scaled_s", 1)):
        setup[key] = statistics.median(imports) + statistics.median(x[i] for x in setups)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "setup_s": setup}
    try:
        if args.trace:
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in per_layer(wl, args.seconds, tally, report).items()}
            lines = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        else:
            measured = run_passes(wl, args.seconds, tally, speed=speed)
            metrics, lines = end_to_end(wl.name, measured, setup, tally)
            for key in ("passes", "cpu_passes", "scaled_passes"):
                report[key] = measured.get(key)
            for key in ("samples", "cpu_samples", "scaled_samples"):
                report[f"{key}_ms"] = [s * 1000 for s in measured.get(key, [])]
            if speed:
                report["speedometer"] = {"times": speed.times, "readings": speed.readings}
        for op in wl.extra_ops():
            _t0, dt, _cpu, problems = run_op(op)
            tally.record(op, problems)
            wl.detail[f"{op.label}_s"] = dt
        problems = wl.finish()
        if problems:
            tally.fail(problems)
    finally:
        wl.close()

    report.update(detail=wl.detail, problems=tally.problems[:50],
                  wall_s=perf_counter() - wall0, cpu_s=cpu_seconds() - cpu0)
    lines += [f"wall_s {report['wall_s']:.2f} s, cpu_s {report['cpu_s']:.2f} s "
              f"(process and children)"]
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed)
    path.write_text(json.dumps(report, indent=1, default=str))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} -> {path.relative_to(OUT.parent.parent)}")
    for line in lines:
        print(line)
    for problem in list(dict.fromkeys(p.splitlines()[0] for p in tally.problems))[:10]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": tally.incorrect == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


UNITS = (("_calls", "count"), ("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio"),
         ("_growth", "ratio"), ("_checked", "count"), ("_built", "count"),
         (".rows", "count"), (".cols", "count"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


if __name__ == "__main__":
    sys.exit(main())
