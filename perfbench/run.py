"""Benchmark of the fockspace library, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The program is driven as ``python -m fockspace.cli`` with ``src`` on
PYTHONPATH, one worker process at a time; FOCKSPACE_THREADS and the BLAS
thread variables are passed through unchanged and recorded.

Workloads (each a closed loop with one operation in flight):

* ``verify-all``: ``verify all --seed N`` in a fresh process per operation.
  Time to a verdict on the 1187 cases; the only workload that rebuilds
  quadrature rules, and the one that runs the suite thread pool.
* ``cli-short``: a seeded mix of ``eval`` and small ``table`` commands, a
  fresh process each.  Bound by interpreter start plus import, so work moved
  into module load shows here.
* ``library-sweep``: one long-lived process (import excluded) making
  one-point ``psi_*`` calls, a ``radial_hankel`` ladder whose rules never
  repeat, and ``fock_map`` calls.  Scalar kernels and large one-off rules.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (a
fresh interpreter importing ``fockspace.cli``, sampled between operations),
``wall_p50_s``, ``cpu_p50_s`` (user+sys of the worker) and ``peak_rss_mb``.
With ``--trace 1`` it alternates traced and untraced operations and reports
the per-layer metrics: spans recorded by ``tracer.py`` around every public
function of the package, counts taken at the same boundaries, and an import
breakdown from ``python -X importtime``.  Counts cover a fixed, seeded set of
traced operations, so two traced runs with one seed give identical counts.

Every output is checked against references that do not come from fockspace
(``reference.py``; the checked-in case ids of ``verify all``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, the summary (including ``wall_tail_s`` where at least 21
samples allow it, and ``ops_failed_ratio``) and the same metrics as text.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASE_IDS = BENCH / "verify_case_ids.txt"

PASSED_ENV = (
    "FOCKSPACE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SPECFUN = ("gegenbauer", "laguerre", "spherical_harmonic", "spherical_bessel",
           "wigner_3j", "wigner_d_small", "wigner_D_su2")
HYDROGEN = ("psi_momentum", "psi_position", "momentum_norm", "radial_overlap", "coefficient")
IDENTITIES = ("triple_D_integral", "plane_wave_partial", "integral_rep",
              "genfunc_gegenbauer", "bessel_genfunc", "passage_residual")
SUITES = ("hydrogen", "maps", "clifford", "identities")
RULE_KINDS = ("legendre", "laguerre", "hermite", "chebyshev2")


@dataclass
class Op:
    """One measured operation: a process run, or one sweep pass."""

    wall: float
    cpu: float
    rss_mb: float
    traced: bool
    ok: bool = True
    out_bytes: int = 0
    segments: list = field(default_factory=list)
    detail: object = None


class Runner:
    """Starts processes from the checkout root and times them from outside."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.python = sys.executable

    def run(self, argv: list[str]) -> tuple[int, float, float, float, bytes, bytes]:
        """(exit code, wall s, user+sys s, max RSS MB, stdout, stderr) of one process."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([self.python] + argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())

    def cli(self, args: list[str], traced: bool) -> tuple[Op, bytes]:
        """One ``fockspace`` command, through ``traced_cli.py`` when traced."""
        trace = self.tmp / "trace.json"
        argv = ([str(BENCH / "traced_cli.py"), str(trace)] if traced
                else ["-m", "fockspace.cli"]) + args
        code, wall, cpu, rss, stdout, _ = self.run(argv)
        op = Op(wall, cpu, rss, traced, ok=code == 0, out_bytes=len(stdout))
        if traced:
            op.segments = json.loads(trace.read_text())
            trace.unlink()
        return op, stdout

    def setup_sample(self) -> float:
        code, wall, *_ = self.run(["-c", "import fockspace.cli"])
        if code != 0:
            raise RuntimeError("importing fockspace.cli failed")
        return wall

    def import_sample(self) -> dict:
        code, *_, err = self.run(["-X", "importtime", "-c", "import fockspace.cli"])
        if code != 0:
            raise RuntimeError("importing fockspace.cli failed")
        return parse_importtime(err.decode())


def parse_importtime(text: str) -> dict:
    """import.* seconds from the ``-X importtime`` table of one process."""
    total = 0.0
    own: Counter = Counter()
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        self_us, cum_us, indent, name = match.groups()
        if len(indent) == 1:
            total += int(cum_us) / 1e6
        top = name.split(".")[0]
        if top in ("numpy", "scipy", "fockspace"):
            own[top] += int(self_us) / 1e6
    return {"import.total_s": total, "import.numpy_s": own["numpy"],
            "import.scipy_s": own["scipy"], "import.fockspace_self_s": own["fockspace"]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Operations of one workload; ``check`` runs after the timed loop."""

    def check(self, ops: list[Op]) -> None:
        pass

    def close(self) -> None:
        pass


class VerifyAll(Workload):
    """``verify all`` in a fresh process; checked against the case-id list."""

    setup_ratio = 1.0
    min_ops = 3
    trace_units = 1

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.seed = runner, seed
        self.expected_ids = CASE_IDS.read_text().split()
        self.digest = None

    def op(self, index: int, traced: bool) -> Op:
        out = self.runner.tmp / "report.json"
        op, _ = self.runner.cli(["verify", "all", "--seed", str(self.seed), "--format", "json",
                                 "--out", str(out)], traced)
        text = out.read_text() if out.exists() else ""
        op.out_bytes += len(text.encode())
        op.ok = op.ok and self._check(text)
        out.unlink(missing_ok=True)
        return op

    def _check(self, text: str) -> bool:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return False
        cases = report.get("cases", [])
        if [c.get("id") for c in cases] != self.expected_ids:
            return False
        if report.get("failed") != 0 or not all(c.get("passed") is True for c in cases):
            return False
        report.pop("elapsed_ms", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        return digest == self.digest


def _grid_args(start: float, stop: float, count: int) -> list[str]:
    return [repr(start), repr(stop), str(count)]


def cli_command(rng: random.Random) -> list[str]:
    """One seeded ``eval`` or ``table`` command line (without the program)."""
    kind = rng.choices(["eval-position", "eval-momentum", "radial", "momentum-radial",
                        "gegenbauer", "fock"], weights=[2, 2, 1, 1, 1, 1])[0]
    n = rng.randint(1, 6)
    l = rng.randint(0, n - 1)
    if kind.startswith("eval"):
        m = rng.randint(-l, l)
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in v) ** 0.5
        radius = rng.uniform(0.1, 2.5 * n * n) if kind == "eval-position" else rng.uniform(0.05, 2.0) / n
        point = [repr(radius * c / norm) for c in v]
        return ["eval", kind[5:], "--n", str(n), "--l", str(l), "--m", str(m), "--point"] + point
    count = rng.randint(5, 20)
    if kind == "radial":
        return ["table", "radial", "--n", str(n), "--l", str(l),
                "--grid"] + _grid_args(0.0, rng.uniform(2.0, 3.0 * n * n), count)
    if kind == "momentum-radial":
        return ["table", "momentum-radial", "--n", str(n), "--l", str(l),
                "--grid"] + _grid_args(0.0, rng.uniform(0.5, 3.0) / n, count)
    if kind == "gegenbauer":
        return ["table", "gegenbauer", "--a", repr(rng.uniform(0.1, 3.0)), "--m",
                str(rng.randint(0, 10)), "--grid"] + _grid_args(-1.0, 1.0, count)
    return ["table", "fock", "--delta", repr(rng.uniform(0.2, 2.0)),
            "--grid-p"] + _grid_args(0.0, rng.uniform(0.5, 5.0), count)


def _opt(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_cli_output(argv: list[str], stdout: str) -> bool:
    """Moduli in a command's CSV output against the independent references."""
    import reference

    try:
        rows = [[float(v) for v in line.split(",")] for line in stdout.strip().splitlines()[1:]]
    except ValueError:
        return False
    if not rows:
        return False
    if argv[0] == "eval":
        n, l, m = (int(_opt(argv, k)) for k in ("--n", "--l", "--m"))
        point = [float(c) for c in argv[-3:]]
        fn = reference.psi_position if argv[1] == "position" else reference.psi_momentum
        return len(rows) == 1 and reference.close(rows[0][-1], fn(n, l, m, point))
    kind = argv[1]
    if kind == "fock":
        delta = float(_opt(argv, "--delta"))
        pairs = [(got, ref) for row in rows
                 for got, ref in zip(row[1:], reference.fock_point((0.0, 0.0, row[0]), delta) + [1.0])]
    elif kind == "gegenbauer":
        a, m = float(_opt(argv, "--a")), int(_opt(argv, "--m"))
        pairs = [(row[1], reference.gegenbauer(m, a, row[0])) for row in rows]
    else:
        n, l = int(_opt(argv, "--n")), int(_opt(argv, "--l"))
        fn = reference.radial_position if kind == "radial" else reference.momentum_radial
        pairs = [(row[-1], fn(n, l, row[0])) for row in rows]
    expected = int(argv[-1])
    # A table is accurate relative to its largest entry: near a node the
    # entry itself carries no relative accuracy, in either route.
    scale = max(max(ref for _, ref in pairs) * reference.TABLE_FLOOR, reference.ABS_FLOOR)
    return len(rows) == expected and all(
        reference.close(got, ref, floor=scale) for got, ref in pairs)


class CliShort(Workload):
    """Seeded ``eval``/``table`` commands, each in a fresh process."""

    setup_ratio = 0.5
    min_ops = 11
    trace_units = 12

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.rng = random.Random(seed)
        self.commands: list[list[str]] = []

    def op(self, index: int, traced: bool) -> Op:
        while len(self.commands) <= index:
            self.commands.append(cli_command(self.rng))
        op, stdout = self.runner.cli(self.commands[index], traced)
        op.detail = (self.commands[index], stdout.decode())
        return op

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.ok:
                op.ok = check_cli_output(*op.detail)


class LibrarySweep(Workload):
    """Sweep passes in one long-lived worker; pass 0 is an untimed warm-up."""

    setup_ratio = 0.5
    min_ops = 5
    trace_units = 2

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.seed = runner, seed
        self.trace_path = runner.tmp / "sweep_trace.json"
        self.proc = subprocess.Popen(
            [runner.python, str(BENCH / "sweep_worker.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=runner.env, cwd=ROOT, text=True)
        self.rss_mb = 0.0
        self.passes = 0
        self._traced_ops: list[Op] = []
        self._pass(0, False)

    def _pass(self, index: int, traced: bool) -> dict:
        self.proc.stdin.write(json.dumps({"pass": index, "trace": traced}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("sweep worker ended unexpectedly")
        return json.loads(line)

    def op(self, index: int, traced: bool) -> Op:
        # every pass takes fresh inputs, so no rule repeats within the run
        self.passes += 1
        reply = self._pass(self.passes, traced)
        op = Op(reply["wall"], reply["cpu"], 0.0, traced, detail=reply["sample"])
        if traced:
            self._traced_ops.append(op)
        return op

    def close(self) -> None:
        """Stop the worker; collect its traced segments and peak RSS."""
        if self.proc.poll() is None:
            path = str(self.trace_path) if self._traced_ops else None
            self.proc.stdin.write(json.dumps({"exit": path}) + "\n")
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self._traced_ops:
            for op, segment in zip(self._traced_ops, json.loads(self.trace_path.read_text())):
                op.segments = [segment]

    def check(self, ops: list[Op]) -> None:
        import reference

        rng = random.Random(self.seed)
        for op in rng.sample(ops, min(len(ops), 12)):
            op.ok = self._check_sample(op.detail, reference)

    @staticmethod
    def _check_sample(sample: dict, reference) -> bool:
        ok = True
        for n, l, m, p, r, got_p, got_r in sample["psi"]:
            ok &= reference.close(got_p, reference.psi_momentum(n, l, m, p))
            ok &= reference.close(got_r, reference.psi_position(n, l, m, r))
        lad = sample["ladder"]
        refs = [reference.momentum_radial(lad["n"], lad["l"], p) for p in lad["momenta"]]
        for rung in lad["moduli"]:
            ok &= all(reference.close(got, ref, rel=reference.HANKEL_REL_TOL)
                      for got, ref in zip(rung, refs))
        for pvec, delta, y in sample["fock"]:
            ok &= all(reference.close(got, ref)
                      for got, ref in zip(y, reference.fock_point(pvec, delta)))
        return bool(ok)


WORKLOADS = {"verify-all": VerifyAll, "cli-short": CliShort, "library-sweep": LibrarySweep}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(workload, runner: Runner, seconds: float, traced: bool):
    """Closed loop: operations start until the deadline, then the last one ends.

    Side samples are interleaved with the operations: ``setup_s`` samples in
    untraced runs, ``-X importtime`` samples in traced runs.  Traced runs
    alternate traced and untraced operations in pairs whose order alternates;
    both operations of a pair get the same index (the same command for the
    CLI workloads).
    """
    deadline = time.perf_counter() + seconds
    ops: list[Op] = []
    side: list = []
    sample = runner.import_sample if traced else runner.setup_sample
    due = 0.0
    index = 0
    while True:
        n_traced = sum(op.traced for op in ops)
        enough = len(ops) >= workload.min_ops and (not traced or n_traced >= workload.trace_units)
        if enough and time.perf_counter() >= deadline:
            break
        if traced:
            order = (True, False) if index % 2 == 0 else (False, True)
            for flag in order:
                ops.append(workload.op(index, flag))
        else:
            ops.append(workload.op(index, False))
        index += 1
        due += workload.setup_ratio
        while due >= 1.0:
            side.append(sample())
            due -= 1.0
    while len(side) < 5:
        side.append(sample())
    return ops, side


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: list[float]):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n).

    None below 21 samples, where that percentile would not lie above the median.
    """
    n = len(values)
    if n < 21:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(ops: list[Op], setups: list[float], extra_rss: float) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "wall_p50_s": (median(op.wall for op in ops), "s"),
        "cpu_p50_s": (median(op.cpu for op in ops), "s"),
        "peak_rss_mb": (max([op.rss_mb for op in ops] + [extra_rss]), "MB"),
    }


def span_stats(segments: list[dict]):
    """Per-name calls, self and total seconds; plus verify suite timings."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    verify = {"wait": 0.0, "suites": Counter(), "run": 0.0}
    for seg in segments:
        names = seg["names"]
        run_start = None
        suite_starts = []
        for th in seg["threads"]:
            start, end, parent = th["start"], th["end"], th["parent"]
            child = [0.0] * len(start)
            for i, p in enumerate(parent):
                if p >= 0:
                    child[p] += end[i] - start[i]
            for i, nid in enumerate(th["name"]):
                name, dur = names[nid], end[i] - start[i]
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - child[i]
                if name == "verify.run_verify":
                    run_start = start[i]
                    verify["run"] += dur
                elif name.startswith("verify.suite_"):
                    suite_starts.append(start[i])
                    verify["suites"][name] += dur
        if run_start is not None:
            verify["wait"] += sum(s - run_start for s in suite_starts)
    return calls, self_s, total_s, verify


def per_layer(traced_set: list[Op], all_ops: list[Op], imports: list[dict]) -> dict:
    """Per-layer metrics: totals over the traced set, medians over import samples.

    ``*.calls`` count spans, ``*.self_s`` sum span time minus the time of
    child spans in the same thread.  ``verify.suite_wait_s`` sums, over the
    suites, suite start minus ``run_verify`` start; ``verify.parallel_gain``
    is the summed suite time over the ``run_verify`` wall.  A layer that the
    workload does not reach reports 0.  ``trace.overhead_ratio`` compares the
    median wall of all traced operations with that of the untraced ones.
    """
    segments =[seg for op in traced_set for seg in op.segments]
    calls, self_s, total_s, verify = span_stats(segments)
    counters: Counter = Counter()
    keys: set = set()
    for seg in segments:
        counters.update(seg["counters"])
        keys |= set(seg["rule_keys"])
    out: dict = {}
    for key in ("import.total_s", "import.numpy_s", "import.scipy_s", "import.fockspace_self_s"):
        out[key] = (median(sample[key] for sample in imports), "s")
    out["cli.main.calls"] = (calls["cli.main"], "count")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    out["cli.output_bytes"] = (sum(op.out_bytes for op in traced_set), "bytes")
    for suite in SUITES:
        out[f"verify.suite_{suite}.s"] = (verify["suites"][f"verify.suite_{suite}"], "s")
    out["verify.suite_wait_s"] = (verify["wait"], "s")
    suites_sum = sum(verify["suites"].values())
    out["verify.parallel_gain"] = (suites_sum / verify["run"] if verify["run"] else 0.0, "ratio")
    out["verify.cases"] = (counters["verify.cases"], "count")
    out["verify.cases_failed"] = (counters["verify.cases_failed"], "count")
    builds = counters["quadrature.rule_builds"]
    out["quadrature.rule_builds"] = (builds, "count")
    for kind in RULE_KINDS:
        out[f"quadrature.rule_builds.{kind}"] = (counters[f"quadrature.rule_builds.{kind}"], "count")
    out["quadrature.rule_keys"] = (len(keys), "count")
    out["quadrature.rule_useful_ratio"] = (len(keys) / builds if builds else 0.0, "ratio")
    out["quadrature.rule_build_s"] = (
        sum(total_s[f"quadrature.{fn}"] for fn in
            ("gauss_legendre", "gauss_laguerre", "gauss_hermite", "chebyshev_second")), "s")
    out["quadrature.rule_nodes_built"] = (counters["quadrature.rule_nodes_built"], "count")
    out["quadrature.radial_hankel.calls"] = (calls["quadrature.radial_hankel"], "count")
    out["quadrature.radial_hankel.self_s"] = (self_s["quadrature.radial_hankel"], "s")
    out["quadrature.mc_gaussian.samples"] = (counters["quadrature.mc_gaussian.samples"], "count")
    out["quadrature.mc_gaussian.self_s"] = (self_s["quadrature.mc_gaussian"], "s")
    for fn in SPECFUN:
        out[f"specfun.{fn}.calls"] = (calls[f"specfun.{fn}"], "count")
        out[f"specfun.{fn}.self_s"] = (self_s[f"specfun.{fn}"], "s")
    for fn in ("gegenbauer", "laguerre"):
        key = f"specfun.{fn}.recurrence_steps"
        out[key] = (counters[key], "count")
    for fn in HYDROGEN:
        out[f"hydrogen.{fn}.calls"] = (calls[f"hydrogen.{fn}"], "count")
        out[f"hydrogen.{fn}.self_s"] = (self_s[f"hydrogen.{fn}"], "s")
    for key in ("hydrogen.coefficient.grid_points", "hydrogen.coefficient.convergence_errors"):
        out[key] = (counters[key], "count")
    for method in ("quadrature", "mc"):
        out[f"quadmaps.ks_integral.{method}.calls"] = (calls[f"quadmaps.ks_integral.{method}"], "count")
        out[f"quadmaps.ks_integral.{method}.self_s"] = (self_s[f"quadmaps.ks_integral.{method}"], "s")
    out["quadmaps.ks_map.points"] = (counters["quadmaps.ks_map.points"], "count")
    for fn in ("det_identity", "build_A"):
        out[f"clifford.{fn}.calls"] = (calls[f"clifford.{fn}"], "count")
        out[f"clifford.{fn}.self_s"] = (self_s[f"clifford.{fn}"], "s")
    out["clifford.gaussian_mc.samples"] = (counters["clifford.gaussian_mc.samples"], "count")
    out["clifford.gaussian_mc.self_s"] = (self_s["clifford.gaussian_mc"], "s")
    for fn in IDENTITIES:
        out[f"identities.{fn}.calls"] = (calls[f"identities.{fn}"], "count")
        out[f"identities.{fn}.self_s"] = (self_s[f"identities.{fn}"], "s")
    traced_wall = median(op.wall for op in all_ops if op.traced)
    plain_wall = median(op.wall for op in all_ops if not op.traced)
    out["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return out


def provenance(args, ops: list[Op], side: list) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() if res.returncode == 0 else None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "sympy": version("sympy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace),
        "samples": {"ops": len(ops), "traced_ops": sum(op.traced for op in ops),
                    "side": len(side), "side_kind": "importtime" if args.trace else "setup"},
        "env": {name: os.environ.get(name) for name in PASSED_ENV},
        "op_wall_s": [round(op.wall, 6) for op in ops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockspace" / "cli.py").is_file() or not CASE_IDS.is_file():
        print(f"fockspace sources not found under {SRC}", file=sys.stderr)
        return 2

    # scratch files stay inside the checkout and go when the run ends
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = None
        try:
            runner = Runner(Path(tmp))
            workload = WORKLOADS[args.workload](runner, args.seed)
            ops, side = measure(workload, runner, args.seconds, bool(args.trace))
            workload.close()
            workload.check(ops)
            extra_rss = getattr(workload, "rss_mb", 0.0)
            if args.trace:
                traced_set = [op for op in ops if op.traced][:workload.trace_units]
                metrics = per_layer(traced_set, ops, side)
            else:
                metrics = end_to_end(ops, side, extra_rss)
        finally:
            proc = getattr(workload, "proc", None)
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    failed = sum(not op.ok for op in ops)
    summary = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    if not args.trace:
        summary["ops_failed_ratio"] = {"value": failed / len(ops), "unit": "ratio"}
        walls = [op.wall for op in ops]
        found = tail(walls)
        if found:
            value, pct, n = found
            summary["wall_tail_s"] = {"value": value, "unit": "s", "percentile": round(pct, 1), "n": n}
    print(json.dumps({"provenance": provenance(args, ops, side)}))
    print(json.dumps({"summary": summary}))
    for name, entry in summary.items():
        value = entry["value"]
        print(f"# {name} = {value:.6g} {entry['unit']}" if isinstance(value, float)
              else f"# {name} = {value} {entry['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
