"""Command-line surface: evaluate wavefunctions, tabulate, run verification.

Exit codes: 0 when everything passed, 1 on verification failure, 2 on usage
errors.  Output is deterministic for identical invocations (including the
seed), except for the elapsed_ms field of verification reports, which is
wall time.  CSV uses '.' decimals with 17 significant digits; physical
quantities are in atomic units.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import hydrogen, specfun, verify

_FMT = "{:.17g}"


def _fnum(x: float) -> str:
    return _FMT.format(float(x))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finite(text: str) -> float:
    """argparse type for float options; "nan" and "inf" parse but are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _node_count(text: str) -> int:
    """argparse type for --nodes: the range every quadrature rule accepts."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 2 <= value <= 4096:
        raise argparse.ArgumentTypeError(f"expected an integer in [2, 4096], got {text!r}")
    return value


def _parse_grid(values, parser) -> np.ndarray:
    start, stop, count = values
    count = int(count)
    if count < 1 or count > 1_000_000 or stop < start:
        parser.error(f"bad grid specification: start={start} stop={stop} count={count}")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def _parse_tols(pairs, parser) -> dict:
    tols = {}
    for pair in pairs or []:
        if "=" not in pair:
            parser.error(f"--tol expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            tols[key] = float(val)
        except ValueError:
            parser.error(f"--tol value for {key!r} is not a number: {val!r}")
    try:
        return verify.validate_tolerances(tols)
    except ValueError as exc:
        parser.error(str(exc))


def _quantum_numbers(args, parser) -> specfun.QuantumNumbers:
    try:
        return specfun.QuantumNumbers(args.n, args.l, args.m)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args, parser) -> int:
    qn = _quantum_numbers(args, parser)
    point = tuple(args.point)
    psi = hydrogen.psi_position if args.kind == "position" else hydrogen.psi_momentum
    # an overflow shows as a non-finite value, refused just below
    try:
        with np.errstate(all="ignore"):
            value = psi(qn, point)
    except (OverflowError, ZeroDivisionError):  # l! or (p^2 + delta^2)^(l+2)
        parser.error("the wavefunction is out of floating-point range at this point")
    if not cmath.isfinite(value):
        parser.error("the wavefunction overflows at this point")
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n": qn.n, "l": qn.l, "m": qn.m,
            "point": [float(c) for c in point],
            "re": value.real, "im": value.imag, "abs": abs(value),
            "units": "atomic",
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        header = "n,l,m,px_or_x,py_or_y,pz_or_z,re,im,abs"
        row = ",".join(
            [str(qn.n), str(qn.l), str(qn.m)]
            + [_fnum(c) for c in point]
            + [_fnum(value.real), _fnum(value.imag), _fnum(abs(value))]
        )
        _emit(header + "\n" + row, args.out)
    return 0


def _table_rows(args, parser):
    if args.kind == "radial":
        if args.n is None or args.l is None:
            parser.error("table radial needs --n and --l")
        specfun.QuantumNumbers(args.n, args.l, 0)
        grid = _parse_grid(args.grid, parser)
        if grid[0] < 0:
            parser.error("radial grid must be nonnegative")
        vals = np.atleast_1d(hydrogen.radial_position(args.n, args.l, grid))
        return ["r_bohr", "R_nl"], [[r, v] for r, v in zip(grid, vals)]
    if args.kind == "momentum-radial":
        if args.n is None or args.l is None:
            parser.error("table momentum-radial needs --n and --l")
        specfun.QuantumNumbers(args.n, args.l, 0)
        grid = _parse_grid(args.grid, parser)
        if grid[0] < 0:
            parser.error("momentum grid must be nonnegative")
        vals = np.atleast_1d(hydrogen.radial_momentum(args.n, args.l, grid))
        return (
            ["p_au", "re", "im", "abs"],
            [[p, v.real, v.imag, abs(v)] for p, v in zip(grid, vals)],
        )
    if args.kind == "gegenbauer":
        if args.a is None or args.m is None:
            parser.error("table gegenbauer needs --a and --m")
        grid = _parse_grid(args.grid, parser)
        try:
            vals = np.atleast_1d(specfun.gegenbauer(args.m, args.a, grid))
        except ValueError as exc:
            parser.error(str(exc))
        return ["x", "C_m_a"], [[x, v] for x, v in zip(grid, vals)]
    if args.kind == "fock":
        if args.delta is None:
            parser.error("table fock needs --delta")
        if args.delta <= 0:
            parser.error("--delta must be positive")
        gridspec = args.grid_p if args.grid_p is not None else args.grid
        if gridspec is None:
            parser.error("table fock needs --grid-p (or --grid)")
        grid = _parse_grid(gridspec, parser)
        if grid[0] < 0:
            parser.error("momentum grid must be nonnegative")
        rows = []
        for p in grid:
            y = hydrogen.fock_map((0.0, 0.0, float(p)), args.delta).y
            norm = math.sqrt(sum(c * c for c in y))
            rows.append([p, *y, norm])
        return ["p_au", "y1", "y2", "y3", "y4", "norm"], rows
    parser.error(f"unknown table kind {args.kind!r}")


def cmd_table(args, parser) -> int:
    # an overflow shows as a non-finite value, refused just below
    try:
        with np.errstate(all="ignore"):
            columns, rows = _table_rows(args, parser)
    except OverflowError:  # l! in the momentum radial factor
        parser.error("the tabulated function is out of floating-point range on this grid")
    if not np.all(np.isfinite(rows)):
        parser.error("the tabulated function overflows on this grid")
    if args.format == "json":
        payload = {"kind": args.kind, "columns": columns,
                   "rows": [[float(v) for v in row] for row in rows],
                   "units": "atomic"}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [",".join(columns)] + [",".join(map(_fnum, row)) for row in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _report_text(report: verify.VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    lines = [f"# suite={report.suite} seed={report.seed}"]
    lines.append("id,residual,tolerance,passed")
    for case in report.cases:
        lines.append(",".join([
            case["id"], _fnum(case["residual"]), _fnum(case["tolerance"]),
            "true" if case["passed"] else "false",
        ]))
    lines.append(f"# passed={report.passed} failed={report.failed}")
    return "\n".join(lines)


def cmd_verify(args, parser) -> int:
    tols = _parse_tols(args.tol, parser)
    report = verify.run_verify(args.suite, seed=args.seed, tols=tols, nodes=args.nodes)
    _emit(_report_text(report, args.format), args.out)
    print(
        f"{report.suite}: {report.passed} passed, {report.failed} failed "
        f"(seed {report.seed})",
        file=sys.stderr,
    )
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockspace",
        description=(
            "Hydrogen momentum-space wavefunctions, quadratic norm-squaring "
            "maps, Clifford Gaussian integrals, and their verification suites. "
            "Atomic units throughout."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a wavefunction at one point")
    p_eval.add_argument("kind", choices=("position", "momentum"))
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--l", type=int, required=True)
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--point", type=_finite, nargs=3, required=True,
                        metavar=("X", "Y", "Z"))
    add_common(p_eval)

    p_table = sub.add_parser("table", help="tabulate a function on a grid")
    p_table.add_argument("kind", choices=("radial", "momentum-radial", "gegenbauer", "fock"))
    p_table.add_argument("--n", type=int)
    p_table.add_argument("--l", type=int)
    p_table.add_argument("--m", type=int)
    p_table.add_argument("--a", type=_finite)
    p_table.add_argument("--delta", type=_finite)
    p_table.add_argument("--grid", type=_finite, nargs=3, metavar=("START", "STOP", "COUNT"))
    p_table.add_argument("--grid-p", type=_finite, nargs=3, dest="grid_p",
                         metavar=("START", "STOP", "COUNT"))
    add_common(p_table)

    def add_verify_opts(p):
        p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
        p.add_argument("--tol", action="append", metavar="KEY=VAL",
                       help="tolerance override, repeatable")
        p.add_argument("--nodes", type=_node_count, default=None,
                       help="node count of the hydrogen Hankel and overlap rules "
                            "(overlap never below 200), the maps Hermite rule and "
                            "the identities Laguerre rule; the clifford suite and "
                            "clifford-det ignore it")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", metavar="PATH", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("hydrogen", "maps", "clifford", "identities", "all"))
    add_verify_opts(p_verify)

    p_fock = sub.add_parser("fock-map", help="tabulate the momentum-to-sphere map")
    p_fock.add_argument("--delta", type=_finite, required=True)
    p_fock.add_argument("--grid", type=_finite, nargs=3, metavar=("START", "STOP", "COUNT"))
    p_fock.add_argument("--grid-p", type=_finite, nargs=3, dest="grid_p",
                        metavar=("START", "STOP", "COUNT"))
    add_common(p_fock)

    p_cdet = sub.add_parser("clifford-det", help="determinant-identity sweep only")
    add_verify_opts(p_cdet)
    p_cdet.set_defaults(suite="clifford-det")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return cmd_eval(args, parser)
    if args.command == "table":
        return cmd_table(args, parser)
    if args.command in ("verify", "clifford-det"):
        return cmd_verify(args, parser)
    if args.command == "fock-map":
        args.kind = "fock"
        return cmd_table(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
