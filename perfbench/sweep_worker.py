"""Long-lived worker of the ``library-sweep`` workload.

    python perfbench/sweep_worker.py --seed N

Reads one JSON command per line on stdin and answers each with one JSON line
on stdout:

* ``{"pass": i, "trace": false}`` runs sweep pass i and answers with its
  wall and CPU seconds plus a seeded subsample of its outputs;
* ``{"exit": "trace.json"}`` writes the traced passes' spans (or nothing,
  when the value is null) and ends the process.

A pass calls the library three ways: (a) ``psi_momentum`` and
``psi_position`` at seeded points for every (n, l, m) with n <= 6, one point
per call; (b) a ``radial_hankel`` convergence ladder whose node counts never
repeat a (npts, a) rule within one process, so no cache of rules can serve
it; (c) ``fock_map`` over seeded momenta.  Inputs are made before the pass
clock starts.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from fockspace import hydrogen, quadrature, specfun

STATES = [(n, l, m) for n in range(1, 7) for l in range(n) for m in range(-l, l + 1)]
POINTS_PER_STATE = 16
# Rung k draws its node count from [base_k, base_k + RUNG_SPREAD); the rungs
# are disjoint, and each (rung, l) pool is consumed without replacement.
RUNG_BASES = (256, 512, 1024, 2048, 3968)
RUNG_SPREAD = 128
HANKEL_MOMENTA = 4
FOCK_MOMENTA = 2000
CHECKED_PSI = 3
CHECKED_FOCK = 3


def _direction(rng: random.Random):
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v)) or 1.0
    return [c / norm for c in v]


class Sweep:
    """Seeded pass inputs; rule node counts never repeat within a process."""

    def __init__(self, seed: int):
        self.seed = seed
        pool_rng = random.Random(seed)
        self.pools = {}
        for k in range(len(RUNG_BASES)):
            for l in range(6):
                offsets = list(range(RUNG_SPREAD))
                pool_rng.shuffle(offsets)
                self.pools[k, l] = offsets

    def inputs(self, index: int) -> dict:
        rng = random.Random(self.seed * 1_000_003 + index)
        psi = []
        for n, l, m in STATES:
            qn = specfun.QuantumNumbers(n, l, m)
            for _ in range(POINTS_PER_STATE):
                p = rng.uniform(0.05, 2.0) / n
                r = rng.uniform(0.1, 2.5 * n * n)
                d = _direction(rng)
                psi.append((qn, tuple(p * c for c in d), tuple(r * c for c in d)))
        l = index % 6
        n = rng.randint(l + 1, 6)
        npts = [base + self.pools[k, l].pop() for k, base in enumerate(RUNG_BASES)]
        momenta = [rng.uniform(0.05, 1.5) / n for _ in range(HANKEL_MOMENTA)]
        fock = [([rng.uniform(0.0, 5.0) * c for c in _direction(rng)], rng.uniform(0.2, 2.0))
                for _ in range(FOCK_MOMENTA)]
        return {"psi": psi, "ladder": (n, l, npts, momenta), "fock": fock,
                "checked": rng.sample(range(len(psi)), CHECKED_PSI),
                "checked_fock": rng.sample(range(FOCK_MOMENTA), CHECKED_FOCK)}


def run_pass(inp: dict) -> tuple[float, float, dict]:
    """One timed pass; returns (wall_s, cpu_s, subsample of outputs)."""
    psi_in, fock_in = inp["psi"], inp["fock"]
    n, l, npts, momenta = inp["ladder"]
    t0, c0 = time.perf_counter(), time.process_time()
    psi_out = [(hydrogen.psi_momentum(qn, p), hydrogen.psi_position(qn, r))
               for qn, p, r in psi_in]
    ladder = [quadrature.radial_hankel(n, l, momenta, npts=k) for k in npts]
    fock_out = [hydrogen.fock_map(p, delta).y for p, delta in fock_in]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    sample = {
        "psi": [[psi_in[i][0].n, psi_in[i][0].l, psi_in[i][0].m, psi_in[i][1], psi_in[i][2],
                 abs(psi_out[i][0]), abs(psi_out[i][1])] for i in inp["checked"]],
        "ladder": {"n": n, "l": l, "npts": npts, "momenta": momenta,
                   "moduli": [[abs(v) for v in rung] for rung in ladder]},
        "fock": [[fock_in[i][0], fock_in[i][1], list(fock_out[i])] for i in inp["checked_fock"]],
    }
    return wall, cpu, sample


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sweep = Sweep(args.seed)
    segments = []
    for line in sys.stdin:
        cmd = json.loads(line)
        if "exit" in cmd:
            if cmd["exit"]:
                with open(cmd["exit"], "w", encoding="utf-8") as fh:
                    json.dump(segments, fh)
            return 0
        inp = sweep.inputs(cmd["pass"])
        recorder = None
        if cmd.get("trace"):
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
        try:
            wall, cpu, sample = run_pass(inp)
        finally:
            if recorder is not None:
                recorder.uninstall()
                segments.append(recorder.to_json())
        print(json.dumps({"wall": wall, "cpu": cpu, "sample": sample}), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
