"""Record the fingerprints and command outputs the benchmark checks against.

    python3 perfbench/record.py

Run once, at the commit whose results are taken as correct, from the root
of a source checkout.  For seeds 0..GOLDEN_SEEDS-1 (once for network-sweep,
whose corpora are fixed) it stores the fingerprint of each workload's generated
inputs and, for network-sweep and pr-chain, of every exact induced
behavior (and Mao value).  For cli-fixtures it stores the
exit code, stdout JSON and written file of every command the workload can
issue, with every settings tuple ``joint`` can be given.  locality-lp needs
no recorded results: its verdicts are known by construction.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import product

from common import GOLDEN_SEEDS, GOLDENS, OUT, SRC, child_env

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def record_workload(cls, seed: int) -> dict:
    wl = cls(seed, {})
    wl.setup()
    try:
        # Command outputs are recorded by record_commands instead.
        ops = [] if cls is workloads.CliFixtures else [*wl.ops, *wl.extra_ops()]
        for op in ops:
            problems = op.check(op.run())
            if problems:
                raise SystemExit(f"{cls.name} seed {seed}: {problems}")
        entry = {"inputs": wl.input_digest()}
        if wl.output_digest():
            entry["outputs"] = wl.output_digest()
        return entry
    finally:
        wl.close()


def record_commands() -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        workloads.write_malformed(tmp)
        cmds = [(argv, out) for argv, rc, out in workloads.cli_commands(0, tmp) if rc is None]
        cmds += [(["joint", scenario, "--settings", ",".join(map(str, s))], None)
                 for scenario in ("worked", "wired-pr") for s in product((0, 1), repeat=3)]
        recorded = {}
        for argv, out_file in cmds:
            key = workloads.command_key(argv, tmp)
            if key in recorded:
                continue
            proc = subprocess.run([sys.executable, "-m", "boxnet.cli", *argv],
                                  capture_output=True, text=True, timeout=120,
                                  env=child_env(), cwd=tmp)
            recorded[key] = workloads.command_outcome(proc.returncode, proc.stdout,
                                                      out_file, tmp)
        return recorded
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    goldens = {"cli-fixtures": {"commands": record_commands()}}
    for cls in workloads.WORKLOADS.values():
        entries = goldens.setdefault(cls.name, {})
        for seed in range(GOLDEN_SEEDS):
            key = cls(seed, {}).golden_key()
            if key not in entries:
                entries[key] = record_workload(cls, seed)
                print(f"{cls.name} {key}: {entries[key]}", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
