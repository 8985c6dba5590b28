"""Command-line surface: evaluate wavefunctions, tabulate, run verification.

Exit codes: 0 when everything passed, 1 on verification failure, 2 on usage
errors.  Output is deterministic for identical invocations (including the
seed), except for the elapsed_ms field of verification reports, which is
wall time.  CSV uses '.' decimals with 17 significant digits; physical
quantities are in atomic units.

A command starts numpy's BLAS with one thread unless the user set one of
``BLAS_THREAD_VARIABLES`` (a variable the user set always wins).  OpenBLAS's
default pool starts a spin-waiting thread per extra core in every process,
the forked workers of ``verify all`` included, and costs about a third of a
short command's CPU.  No command does sizeable BLAS work, ``verify all``
runs its suites side by side in processes rather than BLAS threads, and
reports do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import sys

#: The thread counts numpy's BLAS reads when it loads: OpenBLAS's, MKL's, and
#: OpenMP's, which both fall back to.  With none set, the first two become 1;
#: a numpy already loaded keeps its pool, so then nothing is written.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES[:2], "1"))

import numpy as np

from . import hydrogen, specfun

_FMT = "{:.17g}"
# The largest --n of a state and --m of `table gegenbauer`: each command's
# recurrence walks one rung per degree (about 4 us each on a short grid), so
# a cap keeps a typo from running for hours, as the grid COUNT cap does for
# the grid.
_MAX_DEGREE = 100_000


def _fnum(x: float) -> str:
    return _FMT.format(float(x))


def _open_out(path: str | None, parser):
    """The --out file opened for writing, or stdout without --out.

    A path that cannot be opened is a usage error (exit 2), not a traceback
    that reads as a verification failure.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write --out {path!r}: {exc.strerror}")


def _emit(text: str, out):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _finite(text: str) -> float:
    """argparse type for float options; "nan" and "inf" parse but are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed: numpy's generators take integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _node_count(text: str) -> int:
    """argparse type for --nodes: the range every quadrature rule accepts."""
    from .quadrature import MAX_NODES, MIN_NODES  # only verify commands take --nodes

    try:
        value = int(text)
    except ValueError:
        value = 0
    if not MIN_NODES <= value <= MAX_NODES:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [{MIN_NODES}, {MAX_NODES}], got {text!r}")
    return value


def _parse_grid(values, parser, missing: str) -> np.ndarray:
    """The grid of a START STOP COUNT option; ``missing`` is the error without one."""
    if values is None:
        parser.error(missing)
    start, stop, count = values
    if count != int(count):
        parser.error(f"grid COUNT must be an integer, got {count!r}")
    count = int(count)
    if count < 1 or count > 1_000_000 or stop < start:
        parser.error(f"bad grid specification: start={start} stop={stop} count={count}")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def _parse_tols(pairs, parser) -> dict:
    """The --tol KEY=VAL pairs as a dict; keys and values are checked by verify."""
    tols = {}
    for pair in pairs or []:
        if "=" not in pair:
            parser.error(f"--tol expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            tols[key] = float(val)
        except ValueError:
            parser.error(f"--tol value for {key!r} is not a number: {val!r}")
    return tols


def _quantum_numbers(parser, n, l, m=0) -> specfun.QuantumNumbers:
    if n > _MAX_DEGREE:
        parser.error(f"the principal quantum number --n must be at most {_MAX_DEGREE:,}, got {n}")
    try:
        return specfun.QuantumNumbers(n, l, m)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args, parser) -> int:
    qn = _quantum_numbers(parser, args.n, args.l, args.m)
    point = tuple(args.point)
    psi = hydrogen.psi_position if args.kind == "position" else hydrogen.psi_momentum
    # an overflow shows as a non-finite value, refused just below
    with np.errstate(all="ignore"):
        value = psi(qn, point)
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
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        header = "n,l,m,px_or_x,py_or_y,pz_or_z,re,im,abs"
        row = ",".join(
            [str(qn.n), str(qn.l), str(qn.m)]
            + [_fnum(c) for c in point]
            + [_fnum(value.real), _fnum(value.imag), _fnum(abs(value))]
        )
        text = header + "\n" + row
    with _open_out(args.out, parser) as out:
        _emit(text, out)
    return 0


def _table_rows(args, parser):
    if args.kind == "radial":
        if args.n is None or args.l is None:
            parser.error("table radial needs --n and --l")
        _quantum_numbers(parser, args.n, args.l)
        grid = _parse_grid(args.grid, parser, "table radial needs --grid")
        if grid[0] < 0:
            parser.error("radial grid must be nonnegative")
        vals = np.atleast_1d(hydrogen.radial_position(args.n, args.l, grid))
        return ["r_bohr", "R_nl"], [[r, v] for r, v in zip(grid, vals)]
    if args.kind == "momentum-radial":
        if args.n is None or args.l is None:
            parser.error("table momentum-radial needs --n and --l")
        _quantum_numbers(parser, args.n, args.l)
        grid = _parse_grid(args.grid, parser, "table momentum-radial needs --grid")
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
        if args.m < 0:
            parser.error(f"the Gegenbauer degree --m must be >= 0, got {args.m}")
        if args.m > _MAX_DEGREE:
            parser.error(f"the Gegenbauer degree --m must be at most {_MAX_DEGREE:,}, got {args.m}")
        grid = _parse_grid(args.grid, parser, "table gegenbauer needs --grid")
        try:
            vals = np.atleast_1d(specfun.gegenbauer(args.m, args.a, grid))
        except ValueError as exc:
            parser.error(str(exc))
        return ["x", "C_m_a"], [[x, v] for x, v in zip(grid, vals)]
    # "fock", the last kind that argparse admits
    if args.delta is None:
        parser.error("table fock needs --delta")
    if args.delta <= 0:
        parser.error("--delta must be positive")
    gridspec = args.grid_p if args.grid_p is not None else args.grid
    grid = _parse_grid(gridspec, parser, "table fock needs --grid-p (or --grid)")
    if grid[0] < 0:
        parser.error("momentum grid must be nonnegative")
    rows = []
    for p in grid:
        y = hydrogen.fock_map((0.0, 0.0, float(p)), args.delta).y
        norm = math.sqrt(sum(c * c for c in y))
        rows.append([p, *y, norm])
    return ["p_au", "y1", "y2", "y3", "y4", "norm"], rows


def cmd_table(args, parser) -> int:
    # an overflow shows as a non-finite value, refused just below
    with np.errstate(all="ignore"):
        columns, rows = _table_rows(args, parser)
    if not np.all(np.isfinite(rows)):
        parser.error("the tabulated function overflows on this grid")
    if args.format == "json":
        payload = {"kind": args.kind, "columns": columns,
                   "rows": [[float(v) for v in row] for row in rows],
                   "units": "atomic"}
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = [",".join(columns)] + [",".join(map(_fnum, row)) for row in rows]
        text = "\n".join(lines)
    with _open_out(args.out, parser) as out:
        _emit(text, out)
    return 0


def _report_text(report, fmt: str) -> str:
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
    from . import verify  # the suites' modules load here, never for eval or table

    try:
        tols = verify.validate_tolerances(_parse_tols(args.tol, parser))
    except ValueError as exc:
        parser.error(str(exc))
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    with _open_out(args.out, parser) as out:  # before the run, which may take seconds
        report = verify.run_verify(args.suite, seed=seed, tols=tols, nodes=args.nodes)
        _emit(_report_text(report, args.format), out)
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
        p.add_argument("--seed", type=_seed, default=None)
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
    if args.command in ("verify", "clifford-det"):
        return cmd_verify(args, parser)
    if args.command == "fock-map":
        args.kind = "fock"
    return cmd_table(args, parser)  # "table" or "fock-map"


if __name__ == "__main__":
    sys.exit(main())
