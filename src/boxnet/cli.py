"""Command-line interface.

Subcommands bind JSON scenario files to the library: ``validate``,
``joint``, ``behavior``, ``decompose``, ``ineq`` (eval/derive), and
``ghz`` (search/eval).  A scenario file names the parties, their
settings alphabets, resource and tree files (or inline objects), and
optional per-party outcome bins.  Bare names like ``wired-pr`` resolve
to the fixtures shipped with the package.

Exit codes: 0 success; 1 domain failure (validation failed, LP
infeasible, inequality violated); 2 input error (missing file,
malformed JSON, bad flags, a ``NONSIG_VERTEX_CAP`` that is not a
non-negative integer, a behavior that does not fit the inequality).

Each process loads only what its command uses: ``validate``, ``joint``
and ``behavior`` import ``resource``, ``network`` and ``wiring``; ``ineq
eval`` and ``ghz`` add ``inequality`` and ``ghz``; ``decompose`` adds
``decompose`` and ``linprog``, and ``ineq derive`` all four.
Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
caller has set it, before numpy loads: no command does multithreaded
linear algebra, and idle BLAS threads only cost CPU.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .network import Network, NetworkError, induced_behavior, joint_distribution  # noqa: E402
from .resource import (  # noqa: E402
    Alphabet,
    CapSettingError,
    NonsignalingResource,
    SignalingError,
    TableError,
    _json_field,
    _parse_keys,
    _parse_symbol,
    validate_nonsignaling,
)
from .wiring import tree_from_json_dict  # noqa: E402

INEQ_CHOICES = ("mao", "cr-corr", "cr-prob", "cao", "cao-s14")


class InputError(Exception):
    """Unreadable or structurally malformed input (exit code 2)."""


def _fixtures_root() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def _load_json(path: Path) -> object:
    """The JSON in ``path``; an object that repeats a key is an input
    error, not silently its last value."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{path}: key {key!r} repeated in one JSON object")
            obj[key] = value
        return obj

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"{path}: malformed JSON: {e}") from e


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.is_dir():
        p = p / "scenario.json"
    if p.exists():
        return p
    fixture = _fixtures_root() / arg / "scenario.json"
    if fixture.exists():
        return fixture
    raise InputError(f"no scenario file or shipped fixture named {arg!r}")


def _parse_transcript_key(key: str) -> tuple:
    return tuple(map(_parse_symbol, key.split(","))) if key else ()


def _from_json(make, data, source) -> object:
    """``make(data)`` for a JSON object read from ``source``.

    A wrong JSON type, a missing field, an unparsable or infinite value or
    a tree nested past the recursion limit is an input error (exit 2).  A
    well-formed table that is not a valid box (``TableError``,
    ``SignalingError``) stays a domain failure (exit 1).
    """
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object, got "
                         f"{type(data).__name__}")
    try:
        return make(data)
    except (TableError, SignalingError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError,
            RecursionError) as e:
        raise InputError(f"{source}: malformed input: {e!r}") from e


def _load_entry(entry, scenario: Path, make) -> object:
    """An inline JSON object of the scenario, or the file that a string
    entry names relative to it, built with ``make``."""
    source = scenario
    if isinstance(entry, str):
        source = scenario.parent / entry
        entry = _load_json(source)
    return _from_json(make, entry, source)


def _read_scenario(arg: str) -> tuple[dict, dict]:
    """The scenario's JSON object and the arguments of its Network, with
    every resource and tree file loaded once."""
    path = _resolve_scenario(arg)
    data = _load_json(path)

    def fields(d):
        parties = tuple(_json_field(d, "parties", list))
        settings = {p: Alphabet(_json_field(d, "settings", dict)[p]) for p in parties}
        resources = [_load_entry(e, path, NonsignalingResource.from_json_dict)
                     for e in _json_field(d, "resources", list)]
        trees = {p: _load_entry(_json_field(d, "trees", dict)[p], path,
                                lambda t, p=p: tree_from_json_dict(t, party=p))
                 for p in parties}
        bins = None
        if d.get("bins"):
            bins = {p: {k: _parse_symbol(v) for k, v in
                        _parse_keys(mapping, _parse_transcript_key).items()}
                    for p, mapping in d["bins"].items()}
        return {"parties": parties, "resources": resources, "trees": trees,
                "settings_alphabets": settings, "bins": bins,
                "name": d.get("name", path.parent.name)}

    return data, _from_json(fields, data, path)


def load_scenario(arg: str) -> Network:
    """Build a Network from a scenario file or shipped fixture name."""
    return Network(**_read_scenario(arg)[1])


def load_behavior_file(arg: str) -> NonsignalingResource | FloatBehavior:
    from .ghz import FloatBehavior

    def make(d):
        kind = FloatBehavior if _json_field(d, "float", bool) else NonsignalingResource
        return kind.from_json_dict(d)

    return _from_json(make, _load_json(Path(arg)), arg)


def _emit(payload: dict, pretty_lines, args) -> None:
    if args.pretty:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(payload))


def _write_or_emit(payload: dict, pretty_lines, args) -> None:
    """A behavior's JSON written to ``-o`` (an input error if it cannot be), or emitted."""
    if not args.output:
        return _emit(payload, pretty_lines, args)
    try:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as e:
        raise InputError(f"{args.output}: {e.strerror or e}") from e
    print(f"wrote behavior {payload['id']!r} to {args.output}")


# ---------------------------------------------------------------------------
# Subcommands.  Each returns the process exit code.


def cmd_validate(args) -> int:
    data, network_args = _read_scenario(args.scenario)
    report: dict = {"scenario": data.get("name", args.scenario),
                    "resources": {}, "network": None}
    failed = False
    for r in network_args["resources"]:
        if args.allow_signaling and not r.nonsignaling_checked:
            report["resources"][r.id] = "skipped (marked unchecked)"
            continue
        check = validate_nonsignaling(r)
        if check.passed:
            report["resources"][r.id] = "ok"
        else:
            failed = True
            report["resources"][r.id] = "; ".join(check.errors)
    try:
        net = Network(**network_args)
        report["network"] = f"ok: parties {list(net.parties)}, " \
                            f"{len(net.resources)} resources"
    except NetworkError as e:
        failed = True
        report["network"] = str(e)
    report["passed"] = not failed
    _emit(report,
          [f"scenario: {report['scenario']}"]
          + [f"resource {rid}: {msg}" for rid, msg in report["resources"].items()]
          + [f"network: {report['network']}",
             "PASS" if not failed else "FAIL"],
          args)
    return 0 if not failed else 1


def cmd_joint(args) -> int:
    net = load_scenario(args.scenario)
    try:
        raw = net._check_settings(tuple(map(_parse_symbol, args.settings.split(","))))
    except ValueError as e:
        raise InputError(f"--settings: {e}") from e
    dist = joint_distribution(net, raw,
                              allow_unnormalized=args.allow_unnormalized)
    rids = [r.id for r in net.resources]
    probs = {";".join(f"{rid}:{','.join(map(str, outs))}"
                      for rid, outs in zip(rids, assignment)): str(v)
             for assignment, v in sorted(dist.table.items()) if v != 0}
    payload = {"settings": dict(zip(net.parties, raw)),
               "total": str(dist.total), "probabilities": probs}
    _emit(payload,
          [f"settings: {dict(zip(net.parties, raw))}"]
          + [f"  {outs}: {v}" for outs, v in probs.items()]
          + [f"total: {dist.total}"],
          args)
    return 0


def cmd_behavior(args) -> int:
    net = load_scenario(args.scenario)
    beh = induced_behavior(net)
    if args.check_nosig:
        check = validate_nonsignaling(beh)
        if not check.passed:
            print("; ".join(check.errors), file=sys.stderr)
            return 1
    payload = beh.to_json_dict()
    _write_or_emit(payload, [f"behavior {beh.id}: parties {list(beh.parties)}"]
                   + [f"  {ctx}: " + ", ".join(f"{o}={v}" for o, v in col.items())
                      for ctx, col in payload["table"].items()], args)
    return 0


def _vertex_set_for(r: NonsignalingResource, kind: str, base: Path) -> VertexSet:
    from .decompose import VertexSet, ns_vertices_222

    if kind == "ns222":
        vs = ns_vertices_222()
    else:
        source = base / kind if not Path(kind).exists() else Path(kind)
        data = _load_json(source)
        if not isinstance(data, list) or not data:
            raise InputError(f"{source}: expected a non-empty JSON list of vertices")
        vertices = [_from_json(NonsignalingResource.from_json_dict, d, source)
                    for d in data]
        try:
            vs = VertexSet(vertices, [f"file:{i}" for i in range(len(vertices))])
        except ValueError as e:
            raise InputError(f"{source}: {e}") from e
    if not r.same_signature(vs.vertices[0]):
        raise InputError(f"signature mismatch: {r.id!r} vs vertex set over "
                         f"{len(vs.vertices[0].parties)} parties")
    return vs


def cmd_decompose(args) -> int:
    from .decompose import Infeasible, Mixture, decompose_extremal, decompose_local

    r = _from_json(NonsignalingResource.from_json_dict,
                   _load_json(Path(args.resource)), args.resource)
    if args.vertices == "local":
        result = decompose_local(r)
    else:
        vs = _vertex_set_for(r, args.vertices, Path(args.resource).parent)
        result = decompose_extremal(r, vs)
    if isinstance(result, Mixture):
        payload = {"feasible": True,
                   "components": [{"weight": str(w), "vertex": v.to_json_dict()}
                                  for w, v in result]}
        _emit(payload,
              [f"{r.id} is a mixture of {len(result)} vertices:"]
              + [f"  {w} * {v.id}" for w, v in result],
              args)
        return 0
    assert isinstance(result, Infeasible)
    payload = {"feasible": False,
               "certificate": {
                   "coefficients": {",".join(map(str, k[0])) + "|"
                                    + ",".join(map(str, k[1])): str(c)
                                    for k, c in result.coefficients.items()},
                   "threshold": str(result.threshold),
                   "value": str(result.value)}}
    _emit(payload,
          [f"{r.id} lies outside the hull: separating functional reaches "
           f"{result.value} on it, at most {result.threshold} on every vertex"],
          args)
    return 1


def _named_inequality(name: str):
    from .inequality import cao_inequality, chao_reichardt_correlator, mao_inequality

    return {"mao": mao_inequality, "cr-corr": chao_reichardt_correlator,
            "cao": cao_inequality}[name]()


def cmd_ineq(args) -> int:
    from .ghz import FloatBehavior, parse_float
    from .inequality import (InequalityError, chao_reichardt_probability_form, evaluate,
                             evaluate_cao_s14, verify_derivation_chain)

    if args.action == "derive":
        report = verify_derivation_chain()
        payload = {"steps": [{"name": s.name, "description": s.description,
                              "passed": s.passed, "witness": s.witness}
                             for s in report.steps],
                   "all_passed": report.all_passed}
        _emit(payload, str(report).splitlines(), args)
        return 0 if report.all_passed else 1

    if not args.behavior:
        raise InputError("ineq eval needs --behavior FILE")
    try:
        atol = None if args.atol is None else parse_float(args.atol)
    except ValueError as e:
        raise InputError(f"--atol: {e}") from e
    if atol is not None and not (math.isfinite(atol) and atol >= 0):
        raise InputError(f"--atol must be a finite number >= 0, got {atol}")
    b = load_behavior_file(args.behavior)
    atol = atol if atol is not None else (1e-9 if isinstance(b, FloatBehavior) else 0)
    try:
        if args.ineq == "cr-prob":
            ev = chao_reichardt_probability_form(b, atol=atol)
        elif args.ineq == "cao-s14":
            ev = evaluate_cao_s14(b, atol=atol)
        else:
            ev = evaluate(_named_inequality(args.ineq), b, atol=atol)
    except InequalityError as e:
        # The behavior's scenario does not fit the inequality's.
        raise InputError(f"{args.behavior}: {e}") from e
    value = float(ev.value) if isinstance(ev.value, float) else str(ev.value)
    payload = {"inequality": args.ineq, "value": value,
               "bound": str(ev.bound), "direction": ev.direction,
               "satisfied": ev.satisfied}
    _emit(payload,
          [f"{args.ineq}: value {ev.value} {ev.direction} {ev.bound} -> "
           + ("satisfied" if ev.satisfied else "VIOLATED")],
          args)
    return 0 if ev.satisfied else 1


def cmd_ghz(args) -> int:
    from .ghz import QuantumStrategy, ghz_behavior, parse_float, search_max_violation

    if args.action == "search":
        try:
            res = search_max_violation(_named_inequality(args.ineq), grid=args.grid,
                                       step_floor=parse_float(args.refine))
        except ValueError as e:
            raise InputError(f"--grid/--refine: {e}") from e
        payload = {"inequality": args.ineq,
                   "angles": {p: list(a) for p, a in
                              sorted(res.strategy.angles().items())},
                   "value": res.value}
        _emit(payload,
              [f"best {args.ineq} value: {res.value}"]
              + [f"  {p}: {list(a)}" for p, a in
                 sorted(res.strategy.angles().items())],
              args)
        return 0

    if not args.angles:
        raise InputError("ghz eval needs --angles a0,a1,b0,b1,c0,c1")
    flat = args.angles.split(",")
    if len(flat) != 6:
        raise InputError("--angles needs 6 values: a0,a1,b0,b1,c0,c1")
    try:
        strategy = QuantumStrategy.from_angles({"A": flat[0:2], "B": flat[2:4], "C": flat[4:6]})
    except ValueError as e:
        raise InputError(f"--angles: {e}") from e
    beh = ghz_behavior(strategy)
    payload = beh.to_json_dict()
    _write_or_emit(payload, [json.dumps(payload, indent=2)], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxnet",
        description="Networks of nonsignaling resources: validation, joint "
                    "distributions, decompositions, and inequalities.")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable tables instead of JSON")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; every computation "
                             "is deterministic and the output is identical "
                             "for any value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate resources, trees, network")
    p.add_argument("scenario")
    p.add_argument("--allow-signaling", action="store_true",
                   help="skip the nonsignaling check for resources marked "
                        "unchecked (counterexample scenarios)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("joint", help="joint outcome distribution at fixed settings")
    p.add_argument("scenario")
    p.add_argument("--settings", required=True,
                   help="comma-separated settings, one per party")
    p.add_argument("--allow-unnormalized", action="store_true",
                   help="permit totals != 1 (unchecked resources)")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("behavior", help="full induced behavior as a resource file")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.add_argument("--check-nosig", action="store_true",
                   help="re-run the nonsignaling validator on the result")
    p.set_defaults(func=cmd_behavior)

    p = sub.add_parser("decompose",
                       help="write a resource as a mixture of vertices, or "
                            "emit a separating certificate")
    p.add_argument("resource", help="resource JSON file")
    p.add_argument("--vertices", default="local",
                   help="'local', 'ns222', or a JSON file with a vertex list")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ineq", help="evaluate inequalities / verify derivations")
    p.add_argument("action", choices=("eval", "derive"))
    p.add_argument("--ineq", choices=INEQ_CHOICES, default="mao")
    p.add_argument("--behavior", help="behavior JSON file (eval)")
    p.add_argument("--atol", default=None,
                   help="satisfaction tolerance (default: 1e-9 for float "
                        "behaviors, exact otherwise)")
    p.set_defaults(func=cmd_ineq)

    p = sub.add_parser("ghz", help="GHZ strategies: search or evaluate")
    p.add_argument("action", choices=("search", "eval"))
    p.add_argument("--ineq", choices=("mao", "cr-corr", "cao"), default="mao")
    p.add_argument("--grid", type=int, default=16,
                   help="grid points per angle (search)")
    p.add_argument("--refine", default="1e-4",
                   help="coordinate-descent step floor (search)")
    p.add_argument("--angles", help="a0,a1,b0,b1,c0,c1 in radians (eval)")
    p.add_argument("-o", "--output", help="write the behavior JSON here (eval)")
    p.set_defaults(func=cmd_ghz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapSettingError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
