"""Command-line front end: solver commands, corpus generation, studies.

Exit codes: 0 success, 1 verification-negative (a verify/dual query whose
answer is "no"), 2 file/parse/validation failure, 3 identity-check failure
(the independently computed capacity quantities disagree beyond tolerance).
A number out of its range on the command line (a tolerance that is not
finite and nonnegative, a seed outside [0, 2**32 - 1]) is a parse failure.
Output is assembled in full before anything is written, so failure paths
never leave partial output behind.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import jsonio
from .billiards import extract_dual, verify_strong, verify_weak
from .bodies import generate_body, named_body_names, perturbed_body
from .capacity import (
    brute_force_oracle,
    capacity_identities,
    check_oracle_parameters,
    ehz_capacity,
)
from .curves import ClosedPolygonalCurve, translation_margin
from .errors import EhzcapError, NotABilliardError
from .geometry import hausdorff_distance


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**32:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, 2**32 - 1], got {text}")
    return value


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise EhzcapError(f"cannot read {path}: {exc}") from None
    return jsonio.loads(text)


def _load_body(path: str):
    return jsonio.body_from_dict(_load_json(path))


def _load_curve(path: str) -> ClosedPolygonalCurve:
    return jsonio.curve_from_dict(_load_json(path))


def _cmd_capacity(args) -> tuple[str, int]:
    table = _load_body(args.K)
    geometry = _load_body(args.T)
    if args.oracle_step is not None:  # fail before the solve, not after it
        check_oracle_parameters(table, args.oracle_step, args.m_max)
    started = time.perf_counter()
    result = ehz_capacity(table, geometry)
    timings = {"capacity_seconds": time.perf_counter() - started}
    oracle = None
    if args.oracle_step is not None:
        started = time.perf_counter()
        oracle = brute_force_oracle(table, geometry, args.oracle_step,
                                    m_max=args.m_max)
        timings["oracle_seconds"] = time.perf_counter() - started
    report = jsonio.result_to_dict(result, timings=timings)
    if oracle is not None:
        report["oracle"] = oracle
    code = 0 if result.quantities.consistent else 3
    return jsonio.dumps(report), code


def _cmd_fit_check(args) -> tuple[str, int]:
    body = _load_body(args.K)
    curve = _load_curve(args.q)
    kwargs = {} if args.tol is None else {"tol": args.tol}
    cert = translation_margin(body, curve, **kwargs)
    return jsonio.dumps(jsonio.certificate_to_dict(cert)), 0


def _cmd_verify(args) -> tuple[str, int]:
    table = _load_body(args.K)
    geometry = _load_body(args.T)
    curve = _load_curve(args.q)
    kwargs = {} if args.tol is None else {"tol": args.tol}
    if args.strong:
        if args.p is None:
            raise EhzcapError("verify --strong needs a momentum curve (--p)")
        momenta = jsonio.points_from_dict(_load_json(args.p))
        pair = verify_strong(table, geometry, curve, momenta, **kwargs)
        report = {
            "mode": "strong",
            "verified": pair.verified,
            "records": [
                {
                    "index": r.index,
                    "segment_residual": r.segment_residual,
                    "kick_residual": r.kick_residual,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in pair.records
            ],
        }
        return jsonio.dumps(report), 0 if pair.verified else 1
    outcome = verify_weak(table, geometry, curve, **kwargs)
    report = {
        "mode": "weak",
        "verified": outcome.verified,
        "records": [
            {
                "index": r.index,
                "passed": r.passed,
                "value_at_vertex": r.value_at_vertex,
                "hyperplane_minimum": r.hyperplane_minimum,
            }
            for r in outcome.records
        ],
    }
    return jsonio.dumps(report), 0 if outcome.verified else 1


def _cmd_dual(args) -> tuple[str, int]:
    table = _load_body(args.K)
    geometry = _load_body(args.T)
    curve = _load_curve(args.q)
    kwargs = {} if args.tol is None else {"tol": args.tol}
    momenta = extract_dual(table, geometry, curve, **kwargs)
    return jsonio.dumps({"points": momenta.tolist()}), 0


def _cmd_oracle(args) -> tuple[str, int]:
    table = _load_body(args.K)
    geometry = _load_body(args.T)
    started = time.perf_counter()
    value = brute_force_oracle(table, geometry, args.oracle_step,
                               m_max=args.m_max)
    report = {
        "oracle": value,
        "grid_step": args.oracle_step,
        "seconds": time.perf_counter() - started,
    }
    return jsonio.dumps(report), 0


def _cmd_study(args) -> tuple[str, int]:
    base = _load_body(args.K)
    geometry = _load_body(args.T)
    rows = []
    for delta in args.deltas:
        perturbed = perturbed_body(base, delta, args.seed)
        distance = hausdorff_distance(perturbed, base)
        if args.kind == "continuity":
            result = ehz_capacity(perturbed, geometry)
            value = result.value
            deviation = result.quantities.max_relative_deviation
        else:
            report = capacity_identities(perturbed, geometry)
            value = report.values["base"]
            deviation = report.max_relative_deviation
        rows.append((delta, distance, value, deviation))
    return jsonio.study_rows_to_csv(rows), 0


def _cmd_generate(args) -> tuple[str, int]:
    base = _load_body(args.base) if args.base is not None else None
    spec = generate_body(args.family, name=args.name, k=args.k,
                         base=base, delta=args.delta, seed=args.seed)
    return jsonio.dumps(jsonio.spec_to_dict(spec)), 0


def _add_body_pair(parser) -> None:
    parser.add_argument("--K", required=True, metavar="PATH",
                        help="table body JSON (position factor)")
    parser.add_argument("--T", required=True, metavar="PATH",
                        help="geometry body JSON (momentum factor)")


def _add_out(parser) -> None:
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehzcap",
        description="Capacity of products of convex polytopes, with "
                    "billiard-trajectory cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="solve for the capacity of K x T")
    _add_body_pair(cap)
    cap.add_argument("--oracle-step", type=float, metavar="H",
                     help="also run the brute-force grid oracle at this step")
    cap.add_argument("--m-max", type=int, help="oracle bounce-count cap")
    _add_out(cap)
    cap.set_defaults(handler=_cmd_capacity)

    fit = sub.add_parser(
        "fit-check",
        help="max-margin translation certificate of a curve in a body")
    fit.add_argument("--K", required=True, metavar="PATH",
                     help="body JSON the curve is measured against")
    fit.add_argument("--q", required=True, metavar="PATH", help="curve JSON")
    fit.add_argument("--tol", type=_tolerance, help="pinned decision tolerance")
    _add_out(fit)
    fit.set_defaults(handler=_cmd_fit_check)

    ver = sub.add_parser("verify", help="check bounce laws for a trajectory")
    _add_body_pair(ver)
    ver.add_argument("--q", required=True, metavar="PATH",
                     help="position curve JSON")
    ver.add_argument("--p", metavar="PATH",
                     help="momentum curve JSON (strong mode only)")
    mode = ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--strong", action="store_true",
                      help="check the two-sided strong bounce laws")
    mode.add_argument("--weak", action="store_true",
                      help="check the one-sided vertex condition")
    ver.add_argument("--tol", type=_tolerance,
                     help="point-location tolerance; a strong law also holds when its support gap is at most tol (1 + |v|)(1 + R)")
    _add_out(ver)
    ver.set_defaults(handler=_cmd_verify)

    dual = sub.add_parser(
        "dual", help="recover momenta making the curve a strong trajectory")
    _add_body_pair(dual)
    dual.add_argument("--q", required=True, metavar="PATH",
                      help="position curve JSON")
    dual.add_argument("--tol", type=_tolerance,
                      help="tolerance for the boundary test of the curve "
                      "and for which table facets are active at a bounce")
    _add_out(dual)
    dual.set_defaults(handler=_cmd_dual)

    oracle = sub.add_parser("oracle", help="brute-force grid lower search")
    _add_body_pair(oracle)
    oracle.add_argument("--oracle-step", type=float, required=True,
                        metavar="H", help="boundary grid step")
    oracle.add_argument("--m-max", type=int, help="bounce-count cap")
    _add_out(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    study = sub.add_parser(
        "study", help="perturbation studies, one CSV row per delta")
    study.add_argument("kind", choices=("symmetry", "continuity"))
    _add_body_pair(study)
    study.add_argument("--deltas", type=float, nargs="+", required=True,
                       help="perturbation sizes, one row each")
    study.add_argument("--seed", type=_seed, default=0)
    _add_out(study)
    study.set_defaults(handler=_cmd_study)

    gen = sub.add_parser("generate", help="emit a body as JSON")
    gen.add_argument("--family", required=True,
                     choices=("named", "random-polygon", "perturbed"))
    gen.add_argument("--name", choices=named_body_names(),
                     help="corpus name (family: named)")
    gen.add_argument("--k", type=int,
                     help="vertex count (family: random-polygon)")
    gen.add_argument("--base", metavar="PATH",
                     help="base body JSON (family: perturbed)")
    gen.add_argument("--delta", type=float,
                     help="perturbation size (family: perturbed)")
    gen.add_argument("--seed", type=_seed, default=0)
    _add_out(gen)
    gen.set_defaults(handler=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.handler(args)
    except NotABilliardError as exc:
        print(f"no dual exists: {exc}", file=sys.stderr)
        return 1
    except EhzcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
