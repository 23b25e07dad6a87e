"""The four benchmark workloads.

Each workload turns the seeded specs from ``inputs`` into one pass: a list
of operations run one after another by a single caller (a closed loop with
one client).  An operation returns its result; its check, run outside the
timed region, compares the result exactly and returns a list of problems.
``finish`` compares fingerprints of whole corpora against ``goldens.json``
once per run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from itertools import product
from typing import Callable, NamedTuple

from boxnet import decompose, inequality, network, resource, wiring

import inputs
from common import FIXTURES, GOLDEN_SEEDS, OUT, child_env


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable          # result -> list of problems
    contract: bool = False   # an exit-code contract check, not an exact result


# -- building library objects from specs ----------------------------------------------


def make_resource(spec: inputs.ResourceSpec):
    return resource.NonsignalingResource.make(
        spec.id, spec.parties, [resource.Alphabet.of_size(n) for n in spec.in_sizes],
        [resource.Alphabet.of_size(n) for n in spec.out_sizes], spec.table)


def make_tree(party, scope, root):
    def node(n):
        if n is None:
            return wiring.Terminal()
        rid, inp, children = n
        return wiring.Internal(rid, inp, {o: node(c) for o, c in children.items()})

    return wiring.DecisionTree(party=party, root={s: node(n) for s, n in root.items()},
                               resource_scope=frozenset(scope))


def build_parts(spec: inputs.NetworkSpec):
    resources = [make_resource(r) for r in spec.resources]
    trees = {p: make_tree(p, [r.id for r in spec.resources if p in r.parties], spec.trees[p])
             for p in spec.parties}
    settings = {p: resource.Alphabet.of_size(n) for p, n in spec.settings.items()}
    return resources, trees, settings


def settings_tuples(spec: inputs.NetworkSpec):
    return product(*(range(spec.settings[p]) for p in spec.parties))


# -- exact checks -----------------------------------------------------------------


def table_of(beh) -> dict:
    """A behavior's nonzero entries, independent of how the library stores them."""
    return {tuple(x): {tuple(a): v for a, v in col.items() if v}
            for x, col in beh.table.items()}


def behavior_digest(beh) -> str:
    return inputs.digest([[len(a) for a in beh.input_alphabets],
                          [len(a) for a in beh.output_alphabets], table_of(beh)])


def column_problems(beh) -> list[str]:
    return [f"column {x} sums to {sum(col.values())}"
            for x, col in beh.table.items() if sum(col.values()) != 1]


def nonsignaling_problems(beh) -> list[str]:
    report = resource.validate_nonsignaling(beh)
    return [] if report.passed else [f"induced behavior signals: {report.errors}"]


def reconstruction_problems(spec: inputs.ResourceSpec, mixture) -> list[str]:
    parts = list(mixture)
    if any(w <= 0 for w, _ in parts) or sum(w for w, _ in parts) != 1:
        return ["mixture weights are not a probability vector"]
    for x in product(*(range(n) for n in spec.in_sizes)):
        for a in product(*(range(n) for n in spec.out_sizes)):
            got = sum(w * v.table[x][a] for w, v in parts)
            if got != spec.table[x].get(a, 0):
                return [f"mixture gives {got} at {x},{a}"]
    return []


def certificate_problems(spec: inputs.ResourceSpec, cert) -> list[str]:
    """The functional must score the box above the threshold and every
    deterministic strategy of the signature at or below it."""
    coeffs = cert.coefficients
    on_box = sum(c * spec.table[x].get(a, 0) for (x, a), c in coeffs.items())
    if not on_box > cert.threshold:
        return [f"certificate does not separate: {on_box} <= {cert.threshold}"]
    inputs_space = list(product(*(range(n) for n in spec.in_sizes)))
    per_party = [list(product(range(o), repeat=i)) for i, o in zip(spec.in_sizes, spec.out_sizes)]
    for fns in product(*per_party):
        value = sum(coeffs.get((x, tuple(f[xi] for f, xi in zip(fns, x))), 0) for x in inputs_space)
        if value > cert.threshold:
            return [f"certificate exceeds its threshold on deterministic strategy {fns}"]
    return []


# -- workloads ------------------------------------------------------------------------


class Workload:
    name = ""
    in_process = True  # False when each operation runs in a child process

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens
        self.ops: list[Op] = []
        self.results: dict = {}   # op label -> fingerprint from the first pass
        self.detail: dict = {}    # extra figures for the report file

    def setup(self) -> None:
        raise NotImplementedError

    def extra_ops(self) -> list[Op]:
        """Operations run once after the timed passes, still checked."""
        return []

    def input_digest(self) -> str:
        raise NotImplementedError

    def remember(self, label: str, fingerprint) -> list[str]:
        """Record a result fingerprint; later passes must reproduce it."""
        first = self.results.setdefault(label, fingerprint)
        return [] if first == fingerprint else [f"{label}: result changed between passes"]

    def golden_key(self) -> str:
        """Where this run's fingerprints are recorded in ``goldens.json``."""
        return str(self.seed)

    def finish(self) -> list[str]:
        """Compare the inputs' and results' fingerprints with the recorded
        ones for this seed, when there are recorded ones."""
        golden = self.goldens.get(self.name, {}).get(self.golden_key())
        self.detail["golden_seed"] = golden is not None
        if golden is None:
            return []
        problems = []
        if golden["inputs"] != self.input_digest():
            problems.append("generated inputs differ from the recorded ones")
        if "outputs" in golden and golden["outputs"] != self.output_digest():
            problems.append("exact results differ from the recorded ones")
        return problems

    def output_digest(self) -> str:
        return inputs.digest(sorted(self.results.items()))

    def close(self) -> None:
        pass


class NetworkSweep(Workload):
    """700 small networks: the normalization corpus (joint distribution at
    every settings tuple, then the induced behavior binned and unbinned,
    each re-validated) and the pairwise Mao sweep (induced behavior, then
    the Mao value).  The corpora are fixed; the seed shuffles their order."""

    name = "network-sweep"

    def golden_key(self):
        return "fixed"

    def setup(self):
        self.norm, self.pairwise = inputs.sweep_corpora()
        self.mao = inequality.mao_inequality()
        order = [(self._norm_op, s) for s in self.norm] + [(self._pair_op, s) for s in self.pairwise]
        random.Random(self.seed).shuffle(order)
        self.ops = [make(spec) for make, spec in order]
        for op in self.ops[:10]:
            op.check(op.run())
        self.results.clear()

    def input_digest(self):
        return inputs.digest([self.norm, self.pairwise])

    def _norm_op(self, spec):
        def run():
            resources, trees, settings = build_parts(spec)
            net = network.Network(spec.parties, resources, trees, settings, spec.bins,
                                  name=spec.name)
            joints = [network.joint_distribution(net, s) for s in settings_tuples(spec)]
            binned = network.induced_behavior(net)
            binned_ok = resource.validate_nonsignaling(binned)
            plain = network.Network(spec.parties, resources, trees, settings, None,
                                    name=f"{spec.name}-unbinned")
            unbinned = network.induced_behavior(plain)
            unbinned_ok = resource.validate_nonsignaling(unbinned)
            return joints, binned, binned_ok, unbinned, unbinned_ok

        def check(result):
            joints, binned, binned_ok, unbinned, unbinned_ok = result
            problems = [f"joint total {jd.total} at {jd.settings}" for jd in joints
                        if jd.total != 1 or sum(jd.table.values()) != 1]
            problems += [] if binned_ok.passed else ["binned behavior signals"]
            problems += [] if unbinned_ok.passed else ["unbinned behavior signals"]
            problems += column_problems(binned) + column_problems(unbinned)
            return problems + self.remember(
                spec.name, [behavior_digest(binned), behavior_digest(unbinned)])

        return Op(spec.name, run, check)

    def _pair_op(self, spec):
        def run():
            resources, trees, settings = build_parts(spec)
            net = network.Network(spec.parties, resources, trees, settings, spec.bins,
                                  name=spec.name)
            beh = network.induced_behavior(net)
            return beh, inequality.evaluate(self.mao, beh)

        def check(result):
            beh, ev = result
            problems = [] if ev.value <= 4 and ev.satisfied else [f"Mao value {ev.value} > 4"]
            problems += column_problems(beh) + nonsignaling_problems(beh)
            return problems + self.remember(spec.name, [behavior_digest(beh), str(ev.value)])

        return Op(spec.name, run, check)


CHAIN_K = 5
CHAIN_CHECK_K = (3, 4)


def chain_op(spec: inputs.NetworkSpec, remember=None) -> Op:
    """Induce the chain's behavior and re-validate it as nonsignaling."""

    def run():
        resources, trees, settings = build_parts(spec)
        net = network.Network(spec.parties, resources, trees, settings, None, name=spec.name)
        beh = network.induced_behavior(net)
        return beh, resource.validate_nonsignaling(beh)

    def check(result):
        beh, report = result
        problems = [] if report.passed else [f"{spec.name} behavior signals"]
        problems += column_problems(beh)
        if remember is not None:
            problems += remember(spec.name, behavior_digest(beh))
        return problems

    return Op(spec.name, run, check)


class PrChain(Workload):
    """One large network: the PR-box chain with k = 5 boxes is the timed
    operation; k = 3 and k = 4 are induced and checked once per run.  Seed
    N builds the chain of seed N mod GOLDEN_SEEDS, so that every run's exact
    results are compared with recorded ones."""

    name = "pr-chain"

    def golden_key(self):
        return str(self.seed % GOLDEN_SEEDS)

    def setup(self):
        self.specs = inputs.chain_specs(self.seed % GOLDEN_SEEDS, (*CHAIN_CHECK_K, CHAIN_K))
        self.ops = [chain_op(self.specs[CHAIN_K], self.remember)]
        warm = chain_op(self.specs[CHAIN_CHECK_K[0]])
        warm.check(warm.run())

    def extra_ops(self):
        return [chain_op(self.specs[k], self.remember) for k in CHAIN_CHECK_K]

    def input_digest(self):
        return inputs.digest(sorted(self.specs.items()))


class LocalityLp(Workload):
    """Locality questions with known verdicts, answered by the exact LP."""

    name = "locality-lp"

    def setup(self):
        self.questions = inputs.locality_questions(self.seed)
        decompose.ns_vertices_222()  # one-time extremality certification
        # Shuffled so that a slow spell of the host does not fall on one
        # block of similar questions and move the median.
        self.ops = [self._op(q) for q in self.questions]
        random.Random(self.seed).shuffle(self.ops)
        warm = self._op(self.questions[0])
        warm.check(warm.run())

    def input_digest(self):
        return inputs.digest(self.questions)

    def output_digest(self):
        return ""

    def _op(self, q: inputs.Question) -> Op:
        def run():
            r = make_resource(q.resource)
            if q.kind == "ns222":
                return decompose.decompose_extremal(r, decompose.ns_vertices_222())
            return decompose.is_local(r)

        def check(result):
            if q.kind == "ns222":
                if not isinstance(result, decompose.Mixture):
                    return [f"{q.name}: no decomposition over the NS vertices"]
                return reconstruction_problems(q.resource, result)
            if result.local != q.local:
                return [f"{q.name}: is_local says {result.local}, expected {q.local}"]
            if result.local:
                return reconstruction_problems(q.resource, result.mixture)
            return certificate_problems(q.resource, result.certificate)

        return Op(q.name, run, check)


# -- command line ------------------------------------------------------------------------

GHZ_SNAPSHOT = FIXTURES / "ghz" / "strategy.json"
MALFORMED = ("bad-fraction.json", "top-level-list.json", "bad-key.json")


def write_malformed(tmp: str) -> None:
    """Three decompose inputs the CLI must reject with exit 2: an entry of
    "1/0", a top-level JSON list, and a non-integer table key."""
    good = json.loads((FIXTURES / "wired-pr" / "pr_ab.json").read_text())
    bad = json.loads(json.dumps(good))
    bad["table"]["0,0"]["0,0"] = "1/0"
    with open(os.path.join(tmp, MALFORMED[0]), "w") as fh:
        json.dump(bad, fh)
    with open(os.path.join(tmp, MALFORMED[1]), "w") as fh:
        json.dump([good], fh)
    bad = json.loads(json.dumps(good))
    bad["table"]["x,0"] = bad["table"].pop("0,0")
    with open(os.path.join(tmp, MALFORMED[2]), "w") as fh:
        json.dump(bad, fh)


def cli_commands(seed: int, tmp: str) -> list[tuple]:
    """(argv, expected exit code or None for "as recorded", output file)
    for one pass.  The seed picks the settings of the two ``joint`` calls."""
    rng = random.Random(seed)
    worked = ",".join(str(rng.randint(0, 1)) for _ in range(3))
    wired = ",".join(str(rng.randint(0, 1)) for _ in range(3))
    snap = json.loads(GHZ_SNAPSHOT.read_text())["angles"]
    angles = ",".join(repr(a) for p in ("A", "B", "C") for a in snap[p])
    pr_ab = str(FIXTURES / "wired-pr" / "pr_ab.json")
    wired_beh = os.path.join(tmp, "wired.json")
    ghz_beh = os.path.join(tmp, "ghz.json")
    cmds = [
        (["validate", "worked"], None, None),
        (["validate", "wired-pr"], None, None),
        (["validate", "paradox"], None, None),
        (["joint", "worked", "--settings", worked], None, None),
        (["joint", "wired-pr", "--settings", wired], None, None),
        (["behavior", "worked"], None, None),
        (["behavior", "wired-pr", "-o", wired_beh], None, wired_beh),
        (["decompose", pr_ab], None, None),
        (["decompose", pr_ab, "--vertices", "ns222"], None, None),
        (["ineq", "eval", "--ineq", "mao", "--behavior", wired_beh], None, None),
        (["ineq", "eval", "--ineq", "cr-prob", "--behavior", wired_beh], None, None),
        (["ineq", "derive"], None, None),
        (["ghz", "search", "--ineq", "mao"], None, None),
        (["ghz", "eval", "--angles", angles, "-o", ghz_beh], None, ghz_beh),
        (["ineq", "eval", "--ineq", "mao", "--behavior", ghz_beh], None, None),
    ]
    cmds += [(["decompose", os.path.join(tmp, name)], 2, None) for name in MALFORMED]
    return cmds


def command_key(argv, tmp: str) -> str:
    return " ".join(argv).replace(tmp, "<tmp>").replace(str(FIXTURES), "<fixtures>")


def same_json(a, b, tol=1e-9) -> bool:
    """Exact equality, except that floats may differ by ``tol``."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= tol)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_json(x, y, tol) for x, y in zip(a, b))
    return a == b


def parse_stdout(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def command_outcome(rc: int, stdout: str, out_file, tmp: str) -> dict:
    outcome = {"rc": rc, "stdout": parse_stdout(stdout.replace(tmp, "<tmp>"))}
    if out_file is not None:
        try:
            with open(out_file) as fh:
                outcome["file"] = json.load(fh)
        except (OSError, json.JSONDecodeError):
            outcome["file"] = None
    return outcome


def command_problems(key: str, expected_rc, outcome: dict, stderr: str, goldens: dict) -> list[str]:
    if expected_rc is not None:
        problems = [] if outcome["rc"] == expected_rc else [
            f"{key}: exit {outcome['rc']}, expected {expected_rc}"]
        if "Traceback" in stderr:
            problems.append(f"{key}: traceback on stderr")
        return problems
    golden = goldens.get(key)
    if golden is None:
        return [f"{key}: no recorded output"]
    if not same_json(outcome, golden):
        return [f"{key}: exit code or output differs from the recorded one"]
    if key.startswith("ghz search"):
        snap = json.loads(GHZ_SNAPSHOT.read_text())["value"]
        value = outcome["stdout"].get("value") if isinstance(outcome["stdout"], dict) else None
        if not isinstance(value, float) or abs(value - snap) > 1e-9:
            return [f"{key}: value {value} differs from the snapshot {snap}"]
    return []


class CliFixtures(Workload):
    """Each subcommand as its own fresh ``python -m boxnet.cli`` process
    on the shipped fixtures, plus three malformed inputs that must exit 2."""

    name = "cli-fixtures"
    in_process = False

    def setup(self):
        OUT.mkdir(exist_ok=True)
        self.close()
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        write_malformed(self.tmp)
        self.commands = cli_commands(self.seed, self.tmp)
        self.ops = [self._op(*c) for c in self.commands]
        warm = self._op(["validate", "worked"], None, None)
        warm.check(warm.run())

    def close(self):
        if getattr(self, "tmp", None):
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def input_digest(self):
        return inputs.digest([command_key(argv, self.tmp) for argv, _, _ in self.commands])

    def output_digest(self):
        return ""

    def _op(self, argv, expected_rc, out_file) -> Op:
        key = command_key(argv, self.tmp)
        goldens = self.goldens.get("cli-fixtures", {}).get("commands", {})

        def run():
            proc = subprocess.run([sys.executable, "-m", "boxnet.cli", *argv],
                                  capture_output=True, text=True, timeout=120,
                                  env=child_env(), cwd=self.tmp)
            return command_outcome(proc.returncode, proc.stdout, out_file, self.tmp), proc.stderr

        def check(result):
            outcome, stderr = result
            return command_problems(key, expected_rc, outcome, stderr, goldens)

        return Op(key, run, check, contract=expected_rc is not None)


WORKLOADS = {w.name: w for w in (NetworkSweep, PrChain, LocalityLp, CliFixtures)}
