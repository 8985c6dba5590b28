"""Verification suites: every module invariant as a reported, tolerated case.

A suite evaluates identities by two independent routes and writes what it
measured into a private case recorder; it never builds a case, looks up a
tolerance or picks a discrepancy-registry entry itself.  Who owns what:

* ``TOLERANCES`` is the one table of default tolerances, keyed by check
  family.  ``validate_tolerances`` checks overrides against it: every key
  must name a family, every value must be a finite number >= 0.
* ``_Recorder`` owns the case format (id, params, both sides, residual,
  tolerance, pass flag), the tolerance lookup (an override first, then
  ``TOLERANCES``) and the measured values of the documented printed-form
  discrepancies, which it emits in ``discrepancy_registry`` order, filtered
  to the ids its suite measured.
* ``_suite`` makes a suite body public as ``suite(seed, tols, nodes) ->
  (cases, discrepancies)``.  An exception raised in the body is recorded as
  one failed ``suite_error[<suite>]`` case after the cases recorded before
  it, so one fault does not abort a run; a bad seed or node count and bad
  tolerance overrides still raise before the body starts.
* ``run_verify`` runs one suite, all four, or ``clifford-det`` (the clifford
  suite's determinant sweep alone), times the run and assembles the
  VerificationReport.  All four run in a pool of forked worker processes,
  cases kept in ``SUITES`` order; a worker that dies, or whose result cannot
  come back, fails each suite it took down with one ``suite_error[<suite>]``
  case.  Without ``fork``, or with one CPU, the suites run one after another.
* Suites reduce many residuals to one with ``_worst``, which keeps NaN, so a
  NaN residual can never pass.

Each suite draws its random checks in order from one seeded stream.
Printed-variant failures are documented as *passing* cases that pin the
failure quantitatively (e.g. the duplication formula misses by exactly a
factor 2), so the report's overall pass flag stays equivalent to "every
residual within tolerance".
"""

from __future__ import annotations

import json
import math
import multiprocessing
import numbers
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import clifford, hydrogen, identities, quadmaps, quadrature, specfun

__all__ = [
    "VerificationReport", "run_verify", "SUITES", "TOLERANCES", "validate_tolerances",
    "discrepancy_registry",
]

DEFAULT_SEED = 42

# Default tolerance of every check family; ``--tol key=value`` overrides one.
TOLERANCES = {
    # hydrogen suite
    "ground_momentum_amplitude": 1e-8,
    "fourier_modulus": 1e-6,
    "fourier_phase_constancy": 1e-6,
    "fourier_phase_value": 1e-6,
    "gram_position": 1e-8,
    "momentum_norm": 1e-6,
    "fock_argument_identity": 1e-12,
    "node_count": 0.0,
    "extraction_position": 1e-6,
    "extraction_momentum": 1e-6,
    "extraction_momentum_phase": 1e-6,
    "regulator_derivative_link": 1e-7,
    # maps suite
    "levi_civita_norm": 1e-13,
    "ks_norm": 1e-12,
    "hurwitz_norm": 1e-12,
    "cayley_klein_roundtrip": 1e-13,
    "ks_fiber_invariance": 1e-13,
    "ks_jacobian": 1e-8,
    "ks_integral": 5e-3,
    "ks_integral_mc": 1e-2,
    # clifford suite
    "det_identity": 1e-9,
    "gamma_relations": 0.0,
    "linearity": 0.0,
    "normality": 1e-12,
    "level2_entrywise": 0.0,
    "gegenbauer_series": 1e-10,
    # identities suite
    "genfunc_gegenbauer": 1e-10,
    "gegenbauer_recurrence": 1e-10,
    "bessel_genfunc": 1e-8,
    "integral_rep_l0": 1e-12,
    "integral_rep_constancy": 1e-7,
    "integral_rep_value": 1e-7,
    "plane_wave": 1e-10,
    "plane_wave_tail": 0.0,
    "duplication_printed": 1e-12,
    "duplication_corrected": 1e-13,
    "hyperspherical_orthonormality": 1e-9,
    "hyperspherical_harmonicity": 1e-4,
    "triple_D": 1e-9,
    "triple_D_selection": 1e-12,
    "passage": 1e-8,
    "passage_phase": 1e-10,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _strict(value):
    # JSON (RFC 8259) has no NaN or Infinity: every non-finite float becomes null
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _worst(*values):
    """The largest of ``values``, or NaN if any of them is NaN.

    The builtin ``max(0.0, nan)`` is 0.0, which would report a NaN residual
    as a pass; every worst-case reduction of a suite goes through here.
    """
    for value in values:
        if math.isnan(value):
            return value
    return max(values)


def validate_tolerances(overrides: dict | None) -> dict:
    """The tolerance overrides, after checking every key and value.

    Raises ValueError naming each key that is not in TOLERANCES and each
    value that is not a finite real number >= 0, so a mistyped override is
    never silently ignored and a NaN, negative, infinite, non-real or bool
    one never decides a verdict.
    """
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(TOLERANCES))
    if unknown:
        raise ValueError(
            f"unknown tolerance key(s) {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(TOLERANCES))}"
        )
    bad = sorted(k for k, v in overrides.items()
                 if isinstance(v, bool) or not isinstance(v, numbers.Real)
                 or not (math.isfinite(v) and v >= 0.0))
    if bad:
        raise ValueError(
            "tolerance values must be finite and >= 0, got "
            + ", ".join(f"{k}={overrides[k]!r}" for k in bad)
        )
    return overrides


@dataclass
class VerificationReport:
    """Machine-readable outcome of one verification run."""

    suite: str
    cases: list
    seed: int
    elapsed_ms: int
    paper_discrepancies: list = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c["passed"])

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c["passed"])

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "paper_discrepancies": self.paper_discrepancies,
        }

    def to_json(self) -> str:
        return json.dumps(_strict(self.to_dict()), indent=2, sort_keys=True, allow_nan=False)


def discrepancy_registry() -> dict:
    """The documented printed-form discrepancies, one entry per open item.

    Suites fill in the ``measured`` fields; the ids are stable.
    """
    entries = [
        {
            "id": "laguerre-generating-convention",
            "module": "specfun",
            "summary": (
                "The radial-basis generating sum circulates with an extra "
                "factorial weight on the Laguerre polynomials; the standard "
                "convention (no factorial inside the sum) is the one that "
                "reproduces the textbook ground state R_10 = 2 e^-r and unit "
                "norms, so the factorial belongs to the expansion weights."
            ),
        },
        {
            "id": "momentum-phase-il",
            "module": "hydrogen",
            "summary": (
                "The closed-form momentum wavefunction is printed with phase "
                "i^l, while the direct Fourier transform carries (-i)^l. The "
                "library keeps the printed i^l and measures the offset."
            ),
        },
        {
            "id": "expansion-weight-bookkeeping",
            "module": "hydrogen",
            "summary": (
                "The 4/pi measure factor of the lifted Fourier integral must "
                "cancel exactly in the generating-function expansion weights; "
                "resolved empirically by coefficient extraction."
            ),
        },
        {
            "id": "ks-lift-bookkeeping",
            "module": "quadmaps",
            "summary": (
                "The 3-space reduction of the 4-space integral is printed "
                "without the |u|^2 weight its own derivation requires, and "
                "with a 1/(2 pi) fiber normalization that the 4/pi constant "
                "absorbs; the weighted form is what closes the e^-r and "
                "Gaussian closed-form checks. The printed angle assignment of "
                "the fiber parameterization also swaps the azimuth and fiber "
                "roles; implemented with phase difference = azimuth, common "
                "phase = fiber."
            ),
        },
        {
            "id": "gamma-anticommutator-sign",
            "module": "clifford",
            "summary": (
                "The relation 'Gamma_i Gamma_j + Gamma_j Gamma_i = delta_ij' "
                "cannot hold together with Gamma_i^2 = -1; the realized "
                "relation is {Gamma_i, Gamma_j} = -2 delta_ij I for the "
                "non-identity generators, verified exactly."
            ),
        },
        {
            "id": "level3-entrywise-variant",
            "module": "clifford",
            "summary": (
                "The printed 4x4 level-3 matrix is not the block recursion's "
                "matrix entrywise (its inner block's diagonal entries are not "
                "complex conjugates, so no relabeling of the parameters maps "
                "one to the other); both matrices are normal with the same "
                "determinant identity, which is the property in scope."
            ),
        },
        {
            "id": "integral-representation-prefactor",
            "module": "identities",
            "summary": (
                "The integral representation of the generating function "
                "circulates with prefactor (-1)^l/(pi 2^(l+1) l!) and no "
                "(alpha sin chi)^l; the measured calibration constant is "
                "2^l l! (alpha sin chi)^l, chi-independent, closing the l=0 "
                "case exactly."
            ),
        },
        {
            "id": "hyperspherical-radial-exponent",
            "module": "identities",
            "summary": (
                "The printed radial exponent n-l+1 of the 4-D harmonics is "
                "inconsistent with harmonicity; homogeneous degree n-1 with a "
                "sin^l(chi) factor is used and validated by a finite-"
                "difference Laplacian spot check."
            ),
        },
        {
            "id": "passage-formula-m-structure",
            "module": "identities",
            "summary": (
                "The passage expansion of the 4-D harmonics into D-matrix "
                "elements closes for m = 0 as printed but needs third 3j "
                "entry -m and overall phase (-i)^(l+m) for m != 0; with that "
                "form the per-(n, l) global phase is exactly 1 (measured and "
                "reported)."
            ),
        },
        {
            "id": "duplication-formula-power",
            "module": "identities",
            "summary": (
                "The Legendre duplication formula as printed (power 2^(2n)) "
                "fails by exactly a factor 2 at every n, including n = 1; the "
                "corrected power 2^(2n+1) passes at machine precision. Both "
                "variants are evaluated in the identities suite."
            ),
        },
    ]
    return {e["id"]: dict(e, measured={}) for e in entries}


class _Recorder:
    """One suite's cases and measured discrepancy values, in the report's format.

    A suite hands each check to ``case`` (two sides) or ``residual`` (a
    residual against 0) together with the TOLERANCES key that judges it,
    and each measured discrepancy value to ``measure``.
    """

    def __init__(self, tols: dict | None):
        self.tols = validate_tolerances(tols)
        self.cases = []
        self.measured = {}

    def case(self, case_id: str, params: dict, lhs, rhs, key, residual: float | None = None):
        """Record ``lhs`` against ``rhs``, judged by the tolerance of ``key``.

        ``key`` is a TOLERANCES key, or the tolerance itself where the check
        derives it from its own data.  The residual defaults to
        |lhs - rhs| / max(1, |lhs|).
        """
        tolerance = self.tols.get(key, TOLERANCES[key]) if isinstance(key, str) else key
        lhs_c, rhs_c = complex(lhs), complex(rhs)
        if residual is None:
            residual = abs(lhs_c - rhs_c) / max(1.0, abs(lhs_c))
        self.cases.append({
            "id": case_id,
            "params": {k: _jsonify(v) for k, v in params.items()},
            "lhs": _jsonify(lhs_c),
            "rhs": _jsonify(rhs_c),
            "residual": float(residual),
            "tolerance": float(tolerance),
            "passed": bool(residual <= tolerance),
        })

    def residual(self, case_id: str, params: dict, residual: float, key: str):
        """Record a check whose outcome is a residual, measured against 0."""
        self.case(case_id, params, residual, 0.0, key, residual=residual)

    def measure(self, discrepancy_id: str, **values):
        """Set the measured values of one discrepancy-registry entry; an id
        not in the registry raises ValueError, so a typo fails the suite."""
        if discrepancy_id not in discrepancy_registry():
            raise ValueError(f"unknown discrepancy id {discrepancy_id!r}")
        self.measured[discrepancy_id] = values

    def error(self, suite: str, exc: Exception, depth: int = -1):
        """Record ``exc``, raised inside ``suite``, as one failed case whose
        ``where`` is traceback frame ``depth`` (-1 raised it, 0 caught it)."""
        frame = traceback.extract_tb(exc.__traceback__)[depth]
        self.case(f"suite_error[{suite}]", {
            "suite": suite,
            "error": type(exc).__name__,
            "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }, math.nan, math.nan, 0.0)

    def discrepancies(self) -> list:
        """The registry entries this suite measured, in registry order."""
        return [dict(entry, measured=self.measured[key])
                for key, entry in discrepancy_registry().items() if key in self.measured]


def _check_seed_and_nodes(seed, nodes):
    """Raise ValueError unless ``seed`` is an integer >= 0 and not a bool
    (numpy's generators refuse a negative one) and ``nodes`` is None or an
    integer in the range every quadrature rule accepts."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    low, high = quadrature.MIN_NODES, quadrature.MAX_NODES
    if nodes is not None and not (isinstance(nodes, numbers.Integral) and low <= nodes <= high):
        raise ValueError(f"nodes must be None or an integer in [{low}, {high}], got {nodes!r}")


def _suite(name: str):
    """Decorator: ``body(rec, seed, nodes)`` becomes the suite called ``name``.

    The suite is ``(seed, tols, nodes) -> (cases, discrepancies)``; its body
    writes into a fresh _Recorder.  An exception from the body becomes one
    failed case that names the suite, the exception type and its message.
    A bad seed or node count (see ``_check_seed_and_nodes``) raises
    ValueError before the body starts.
    """
    def decorate(body):
        def suite(seed: int = DEFAULT_SEED, tols: dict | None = None,
                  nodes: int | None = None) -> tuple:
            _check_seed_and_nodes(seed, nodes)
            rec = _Recorder(tols)
            try:
                body(rec, seed, nodes)
            except Exception as exc:  # a suite's fault fails its run, not the others'
                rec.error(name, exc)
            return rec.cases, rec.discrepancies()

        suite.__name__ = suite.__qualname__ = body.__name__
        return suite

    return decorate


# ---------------------------------------------------------------------------
# hydrogen suite
# ---------------------------------------------------------------------------

def _mean_ratio(got, want) -> complex:
    big = np.abs(want) > 1e-3 * np.max(np.abs(want))
    return complex(np.mean(got[big] / want[big]))


@_suite("hydrogen")
def suite_hydrogen(rec, seed, nodes):
    hankel_nodes = nodes or 300
    overlap_nodes = max(nodes or 0, 200)

    # ground-state momentum amplitude, closed form and Fourier oracle
    target = 2.0 * math.sqrt(2.0) / math.pi
    closed0 = abs(hydrogen.psi_momentum(specfun.QuantumNumbers(1, 0, 0), (0.0, 0.0, 0.0)))
    y00 = 1.0 / math.sqrt(4.0 * math.pi)
    oracle0 = abs(quadrature.radial_hankel(1, 0, 0.0, npts=hankel_nodes)) * y00
    key = "ground_momentum_amplitude"
    rec.case("ground_momentum_amplitude[closed]", {"n": 1}, closed0, target, key)
    rec.case("ground_momentum_amplitude[hankel]", {"n": 1}, oracle0, target, key)
    rec.case("ground_momentum_amplitude[cross]", {"n": 1}, closed0, oracle0, key)

    # Fourier consistency sweep with per-(n, l) phase units
    phase_units = {}
    for n in range(1, 5):
        delta = 1.0 / n
        for l in range(n):
            p = delta * np.linspace(0.1, 4.0, 20)
            f_closed = hydrogen.radial_momentum(n, l, p)
            f_hankel = quadrature.radial_hankel(n, l, p, npts=hankel_nodes)
            mod_resid = float(np.max(
                np.abs(np.abs(f_hankel) - np.abs(f_closed)) / np.abs(f_closed)
            ))
            rec.residual(f"fourier_modulus[n={n},l={l}]", {"n": n, "l": l},
                         mod_resid, "fourier_modulus")
            ratio = f_hankel / f_closed
            unit = complex(np.mean(ratio))
            spread = float(np.max(np.abs(ratio - unit)))
            phase_units[f"(n={n},l={l})"] = _jsonify(unit)
            rec.residual(f"fourier_phase_constancy[n={n},l={l}]",
                         {"n": n, "l": l, "phase_unit": unit},
                         spread, "fourier_phase_constancy")
            rec.case(f"fourier_phase_value[n={n},l={l}]", {"n": n, "l": l},
                     unit, (-1.0 + 0.0j) ** l, "fourier_phase_value")
    rec.measure("momentum-phase-il", offset_per_nl=phase_units, pattern="(-1)^l")

    # position-space Gram matrices at fixed (l, m)
    for l in range(3):
        ns = list(range(l + 1, 7))
        gram = np.array([
            [quadrature.radial_overlap(n1, n2, l, npts=overlap_nodes) for n2 in ns]
            for n1 in ns
        ])
        resid = float(np.max(np.abs(gram - np.eye(len(ns)))))
        rec.residual(f"gram_position[l={l}]", {"l": l, "n_max": 6}, resid, "gram_position")

    # momentum-space norms
    for n in range(1, 6):
        for l in range(n):
            norm = quadrature.momentum_norm(n, l, npts=overlap_nodes)
            rec.case(f"momentum_norm[n={n},l={l}]", {"n": n, "l": l}, norm, 1.0,
                     "momentum_norm")

    # Gegenbauer-argument identity of the momentum denominator
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        z = (rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.8, 0.8)) * 0.7
        delta = rng.uniform(0.2, 2.0)
        p2 = rng.uniform(0.0, 9.0)
        lhs = (delta * (1 + z)) ** 2 + (1 - z) ** 2 * p2
        x = (p2 - delta ** 2) / (p2 + delta ** 2)
        rhs = (p2 + delta ** 2) * (1 - 2 * z * x + z ** 2)
        worst = _worst(worst, abs(lhs - rhs) / abs(lhs))
    rec.residual("fock_argument_identity[random]", {"trials": 200}, worst,
                 "fock_argument_identity")

    # radial node counts
    for n in range(1, 6):
        for l in range(n):
            grid = np.linspace(1e-6, 60.0 * n, 4000 * n)
            vals = hydrogen.radial_position(n, l, grid)
            signs = np.sign(vals)
            signs = signs[signs != 0]
            changes = int(np.sum(signs[1:] != signs[:-1]))
            rec.case(f"node_count[n={n},l={l}]", {"n": n, "l": l},
                     changes, n - l - 1, "node_count", residual=abs(changes - (n - l - 1)))

    # generating-function coefficient extraction
    position_ratios, momentum_ratios = {}, {}
    for (n, l, m) in [(1, 0, 0), (2, 1, 0), (3, 1, 1)]:
        rng = np.random.default_rng(seed + 10 * n + l)
        pts_pos = rng.uniform(-2.0, 2.0, size=(5, 3))
        pts_mom = rng.uniform(-1.2, 1.2, size=(5, 3))
        scale = hydrogen.extraction_scale(n, l)
        qn = specfun.QuantumNumbers(n, l, m)
        grid = hydrogen.extraction_nodes(l)

        coeff = hydrogen.extract_coefficient("position", qn, n, nodes=grid)
        got = np.array([coeff(pt) / scale for pt in pts_pos])
        want = np.array([hydrogen.psi_position(qn, pt) for pt in pts_pos])
        position_ratios[f"(n={n},l={l})"] = _jsonify(_mean_ratio(got, want))
        resid = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        rec.residual(f"extraction_position[n={n},l={l},m={m}]", {"n": n, "l": l, "m": m},
                     resid, "extraction_position")

        coeff = hydrogen.extract_coefficient("momentum", qn, n, nodes=grid)
        got = np.array([coeff(pt) / scale for pt in pts_mom])
        want = np.array([hydrogen.psi_momentum(qn, pt) for pt in pts_mom])
        unit = _mean_ratio(got, want)
        momentum_ratios[f"(n={n},l={l})"] = _jsonify(unit)
        resid = float(np.max(np.abs(got - unit * want)) / np.max(np.abs(want)))
        rec.residual(f"extraction_momentum[n={n},l={l},m={m}]",
                     {"n": n, "l": l, "m": m, "phase_unit": unit},
                     resid, "extraction_momentum")
        rec.case(f"extraction_momentum_phase[n={n},l={l},m={m}]", {"n": n, "l": l, "m": m},
                 unit, (-1.0 + 0.0j) ** l, "extraction_momentum_phase")
    rec.measure("expansion-weight-bookkeeping",
                position_ratio_per_nl=position_ratios, momentum_ratio_per_nl=momentum_ratios)

    # regulator-derivative link by central finite difference
    rng = np.random.default_rng(seed + 99)
    worst = 0.0
    for _ in range(10):
        z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        al = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        xi = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        eta = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        pvec = rng.uniform(-1.5, 1.5, size=3)
        delta = rng.uniform(0.3, 1.5)
        h = 1e-5
        gp = hydrogen.genfunc_momentum_regulated(z, al, xi, eta, +h, pvec, delta)
        gm = hydrogen.genfunc_momentum_regulated(z, al, xi, eta, -h, pvec, delta)
        fd = -(gp - gm) / (2.0 * h)
        exact = hydrogen.genfunc_momentum(z, al, xi, eta, pvec, delta)
        worst = _worst(worst, abs(fd - exact) / abs(exact))
    rec.residual("regulator_derivative_link[random]", {"trials": 10}, worst,
                 "regulator_derivative_link")

    rec.measure("laguerre-generating-convention",
                radial_10_check=abs(hydrogen.radial_position(1, 0, 1.0) - 2.0 * math.exp(-1.0)))


# ---------------------------------------------------------------------------
# quadratic-maps suite
# ---------------------------------------------------------------------------

def _r_squared(p):
    # |p|^2 summed from left to right: bit-equal to np.sum(p ** 2, axis=-1)
    # and to the square of np.linalg.norm(p, axis=-1) before its root over
    # this short axis, at about a quarter of their cost
    return p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] + p[..., 2] * p[..., 2]


def _exp_minus_r(p):
    return np.exp(-np.sqrt(_r_squared(p)))


@_suite("maps")
def suite_maps(rec, seed, nodes):
    rng = np.random.default_rng(seed)

    # each map squares the norm: |image| = r = |u|^2
    for key, quad_map, dim in (("levi_civita_norm", quadmaps.levi_civita, 2),
                               ("ks_norm", quadmaps.ks_map, 4),
                               ("hurwitz_norm", quadmaps.hurwitz_map, 8)):
        image, r = quad_map(rng.normal(size=(200, dim)))
        resid = float(np.max(np.abs(np.sum(image ** 2, axis=-1) - r ** 2) / r ** 2))
        rec.residual(f"{key}[random]", {"trials": 200}, resid, key)

    # Cayley-Klein round trip and fiber invariance
    worst_rt = 0.0
    worst_fiber = 0.0
    for _ in range(25):
        r0 = rng.uniform(0.1, 3.0)
        th = rng.uniform(0.05, math.pi - 0.05)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        target = r0 * np.array([
            math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th),
        ])
        base = quadmaps.ks_map(quadmaps.cayley_klein(r0, th, ph, 0.0))[0]
        worst_rt = _worst(worst_rt, float(np.max(np.abs(base - target))) / r0)
        for psi in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
            img = quadmaps.ks_map(quadmaps.cayley_klein(r0, th, ph, psi))[0]
            worst_fiber = _worst(worst_fiber, float(np.max(np.abs(img - base))) / r0)
    rec.residual("cayley_klein_roundtrip[random]", {"trials": 25}, worst_rt,
                 "cayley_klein_roundtrip")
    rec.residual("ks_fiber_invariance[psi-grid]", {"trials": 25, "psi_points": 32},
                 worst_fiber, "ks_fiber_invariance")

    # Jacobian spot check: det d(x,y,z,psi)/du = 8|u|^2
    worst = 0.0
    for _ in range(5):
        u = rng.normal(size=4)
        while abs(quadmaps.ks_fiber_angle(u)) > 1.2:  # stay off the branch cut
            u = rng.normal(size=4)
        h = 1e-6 * max(1.0, float(np.linalg.norm(u)))
        jac = np.empty((4, 4))
        for k in range(4):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            fp = np.append(quadmaps.ks_map(up)[0], quadmaps.ks_fiber_angle(up))
            fm = np.append(quadmaps.ks_map(um)[0], quadmaps.ks_fiber_angle(um))
            jac[:, k] = (fp - fm) / (2.0 * h)
        det = abs(np.linalg.det(jac))
        expect = 8.0 * float(u @ u)
        worst = _worst(worst, abs(det - expect) / expect)
    rec.residual("ks_jacobian[fd]", {"trials": 5}, worst, "ks_jacobian")

    # measure identity through the lift
    hrule = quadrature.gauss_hermite(nodes or 28)
    res = quadmaps.ks_integral(_exp_minus_r, rule=hrule)
    rec.case("ks_integral_exp[quadrature]", {"f": "exp(-r)"},
             res.value, 8.0 * math.pi, "ks_integral")
    res = quadmaps.ks_integral(lambda p: np.exp(-_r_squared(p)), rule=hrule)
    rec.case("ks_integral_gauss[quadrature]", {"f": "exp(-r^2)"},
             res.value, math.pi ** 1.5, "ks_integral")
    res = quadmaps.ks_integral(_exp_minus_r, method="mc", seed=seed)
    rec.case("ks_integral_exp[mc]", {"f": "exp(-r)", "stderr": res.error},
             res.value, 8.0 * math.pi, "ks_integral")
    rec.measure("ks-lift-bookkeeping",
                exp_integral_relative_error=abs(res.value - 8.0 * math.pi) / (8.0 * math.pi))
    res = quadmaps.ks_integral(
        lambda p: (_r_squared(p) < 1.0).astype(float), method="mc", seed=seed + 1,
    )
    rec.case("ks_integral_ball[mc]", {"f": "1(r<1)", "stderr": res.error},
             res.value, 4.0 * math.pi / 3.0, "ks_integral_mc")


# ---------------------------------------------------------------------------
# clifford suite
# ---------------------------------------------------------------------------

def _printed_level3(x) -> np.ndarray:
    # the widely printed 4x4 level-3 matrix (different gamma labeling than
    # the block recursion; kept for the structural comparison)
    x1, x2, x3, x4, x5, x6 = x
    return np.array([
        [x6 + 1j * x5, 0, -x1 + 1j * x2, -x4 + 1j * x3],
        [0, x6 + 1j * x5, -x4 - 1j * x3, x1 + 1j * x2],
        [x1 + 1j * x2, x4 - 1j * x3, x6 - 1j * x5, 0],
        [x4 + 1j * x3, -x1 + 1j * x2, 0, x6 - 1j * x5],
    ])


def _det_sweep(rec, rng):
    """The determinant identity at 200 random points per level 1..5, drawn
    per point and evaluated as one stack per level."""
    for n in range(1, 6):
        npar = len(clifford.gammas(n))
        xs, alphas = [], []
        for _ in range(200):
            x = rng.normal(size=npar)
            xs.append(x)
            alphas.append(rng.uniform(-1.0, 1.0) * 0.5 / (1.0 + float(np.linalg.norm(x))))
        results = clifford.det_identities(n, xs, alphas)
        for trial, (alpha, res) in enumerate(zip(alphas, results)):
            rel = res.residual / abs(res.closed_form)
            rec.case(f"det_identity[n={n},trial={trial}]", {"n": n, "alpha": alpha},
                     res.value, res.closed_form, "det_identity", residual=rel)


@_suite("clifford")
def suite_clifford(rec, seed, nodes):
    rng = np.random.default_rng(seed)
    _det_sweep(rec, rng)

    # exact algebraic relations
    anticommutator = 0.0
    for n in range(1, 7):
        gam = clifford.gammas(n)
        worst = clifford.relation_residual(gam)
        rec.residual(f"gamma_relations[n={n}]", {"n": n}, worst, "gamma_relations")
        anticommutator = _worst(anticommutator, worst)
        ident = float(np.max(np.abs(gam[-1] - np.eye(gam[0].shape[0]))))
        rec.residual(f"gamma_last_identity[n={n}]", {"n": n}, ident, "gamma_relations")

        x = rng.normal(size=len(gam))
        y = rng.normal(size=len(gam))
        ax = clifford.build_A(n, x)
        ay = clifford.build_A(n, y)
        axy = clifford.build_A(n, x + y)
        lin = 0.0 if np.array_equal(axy, ax + ay) else float(np.max(np.abs(axy - (ax + ay))))
        rec.residual(f"linearity[n={n}]", {"n": n}, lin, "linearity")
        normality = float(np.max(np.abs(
            ax @ ax.conj().T - float(x @ x) * np.eye(ax.shape[0])
        ))) / float(x @ x)
        rec.residual(f"normality[n={n}]", {"n": n}, normality, "normality")
    rec.measure("gamma-anticommutator-sign", anticommutator_max_residual=anticommutator)

    # printed low-level matrices: level 2 matches entrywise, level 3 only
    # structurally (same normality and determinant identity)
    x4 = rng.normal(size=4)
    a2 = clifford.build_A(2, x4)
    printed2 = np.array([
        [x4[3] + 1j * x4[2], x4[1] + 1j * x4[0]],
        [-x4[1] + 1j * x4[0], x4[3] - 1j * x4[2]],
    ])
    resid = float(np.max(np.abs(a2 - printed2)))
    rec.residual("level2_entrywise[printed]", {}, resid, "level2_entrywise")

    x6 = rng.normal(size=6)
    p3 = _printed_level3(x6)
    norm_resid = float(np.max(np.abs(
        p3 @ p3.conj().T - float(x6 @ x6) * np.eye(4)
    ))) / float(x6 @ x6)
    rec.residual("level3_printed_normality[printed]", {}, norm_resid, "normality")
    alpha = 0.11
    detp = complex(np.linalg.det(np.eye(4) - alpha * p3))
    closed = complex(1.0 - 2.0 * alpha * x6[5] + alpha ** 2 * float(x6 @ x6)) ** 2
    rec.case("level3_printed_det[printed]", {"alpha": alpha}, detp, closed, "det_identity")
    mismatch = float(np.max(np.abs(clifford.build_A(3, x6) - p3)))
    rec.measure("level3-entrywise-variant", max_entry_difference=mismatch,
                printed_det_identity_residual=abs(detp - closed) / abs(closed))

    # Monte Carlo cross-check of the Gaussian closed form, judged at 3 sigma.
    # The n=2 integrand is real, so |residual| / stderr is a t statistic with
    # shifts - 1 degrees of freedom: it exceeds 3 in 0.53% of runs at 32
    # shifts and in 0.33% at 128, against 0.27% for an exact stderr.  The
    # n=3 integrand is complex, with its error spread over both parts; at 32
    # shifts it exceeded 3 at none of 2000 seeds.
    for (n, x, alpha, samples) in [
        (2, (0.0, 0.0, 0.0, 0.5), 0.3, 4 * quadrature.DEFAULT_SAMPLES),
        (3, (0.10, 0.05, -0.10, 0.20, 0.10, 0.30), 0.2, quadrature.DEFAULT_SAMPLES),
    ]:
        res = clifford.gaussian_mc(n, x, alpha, samples=samples, seed=seed + n)
        rec.case(f"gaussian_mc[n={n}]",
                 {"n": n, "alpha": alpha, "stderr": res.stderr, "samples": samples},
                 res.value, res.closed_form, 3.0 * res.stderr, residual=res.residual)

    # Gegenbauer-series form of the closed result
    chi = 0.8
    resid = clifford.gegenbauer_series_check(
        1, (0.3, 0.2, math.cos(chi)), 0.4, 200
    )
    rec.residual("gegenbauer_series[n=1]", {"alpha": 0.4}, resid, "gegenbauer_series")
    resid = clifford.gegenbauer_series_check(2, (0.5, 0.5, 0.5, 0.5), 0.4, 80)
    rec.residual("gegenbauer_series[n=2]", {"alpha": 0.4}, resid, "gegenbauer_series")


@_suite("clifford-det")
def _clifford_det(rec, seed, nodes):
    # the clifford suite's determinant sweep alone, from the same first draws
    _det_sweep(rec, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

@_suite("identities")
def suite_identities(rec, seed, nodes):
    rng = np.random.default_rng(seed)

    # generating function of the Gegenbauer family
    for a in (0.5, 1.0, 1.5, 2.0, 3.0):
        worst = 0.0
        for t in (-0.5, -0.25, 0.25, 0.5):
            for x in np.linspace(-1.0, 1.0, 9):
                worst = _worst(worst, identities.genfunc_gegenbauer(a, t, float(x)).residual)
        rec.residual(f"genfunc_gegenbauer[a={a}]", {"a": a, "t_max": 0.5}, worst,
                     "genfunc_gegenbauer")

    # order-lowering recurrence
    for a in (1.5, 2.0, 3.0, 4.5, 6.0):
        worst = 0.0
        for x in np.linspace(-1.0, 1.0, 9):
            for resid, c in identities.gegenbauer_recurrence_ladder(a, 20, float(x)):
                worst = _worst(worst, resid / max(1.0, abs(c)))
        rec.residual(f"gegenbauer_recurrence[a={a}]", {"a": a, "n_max": 20}, worst,
                     "gegenbauer_recurrence")

    # Bessel-weighted generating function
    for a in (1.0, 1.5, 2.0, 2.5, 3.0):
        worst = 0.0
        for z in (0.5, 2.0, 5.0):
            for chi in (0.3, 0.5 * math.pi, 2.5):
                worst = _worst(worst, identities.bessel_genfunc(a, z, chi).residual)
        rec.residual(f"bessel_genfunc[a={a}]", {"a": a, "z_max": 5.0}, worst,
                     "bessel_genfunc")

    # integral representation: l = 0 closes exactly, kappa is chi-independent
    quad_nodes = nodes or 200
    r0 = identities.integral_rep(0, 0.5, 1.0, quad_nodes)
    rec.case("integral_rep_l0[closed]", {"alpha": 0.5, "chi": 1.0},
             r0.rhs, r0.lhs, "integral_rep_l0")
    kappas = {}
    for l in range(4):
        for alpha in (0.3, 0.6):
            chis = np.linspace(0.2, math.pi - 0.2, 9)
            vals = [identities.integral_rep(l, alpha, float(c), quad_nodes).kappa for c in chis]
            target = 2.0 ** l * math.factorial(l)
            spread = (_worst(*vals) - min(vals)) / target
            rec.residual(f"integral_rep_kappa_constancy[l={l},alpha={alpha}]",
                         {"l": l, "alpha": alpha}, spread, "integral_rep_constancy")
            rec.case(f"integral_rep_kappa_value[l={l},alpha={alpha}]",
                     {"l": l, "alpha": alpha}, float(np.mean(vals)), target,
                     "integral_rep_value")
            kappas[f"(l={l},alpha={alpha})"] = float(np.mean(vals))
    rec.measure("integral-representation-prefactor", kappa=kappas)

    # plane-wave expansion
    worst = 0.0
    for _ in range(5):
        rv = rng.normal(size=3)
        rv *= math.sqrt(2.0) / np.linalg.norm(rv)
        rp = rng.normal(size=3)
        rp /= np.linalg.norm(rp)
        worst = _worst(worst, identities.plane_wave_partial(rv, rp, 25).residual)
    rec.residual("plane_wave[rrp=sqrt2,L=25]", {"L": 25}, worst, "plane_wave")
    rv = np.array([5.0, 0.0, 0.0])
    rp = np.array([0.3, 0.8, 0.52])
    rp /= np.linalg.norm(rp)
    tail = [identities.plane_wave_partial(rv, rp, L).residual for L in (10, 15, 20, 25, 30)]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    rec.residual("plane_wave_tail_monotone[rrp=5]", {"L_list": [10, 15, 20, 25, 30]},
                 0.0 if decreasing else 1.0, "plane_wave_tail")

    # duplication formula, printed and corrected variants
    for n in (0, 1, 5):
        chk = identities.duplication_check(n)
        rec.case(f"duplication_printed_factor2[n={n}]", {"n": n},
                 chk.printed, 0.5, "duplication_printed")
    worst = _worst(*(identities.duplication_check(n).corrected for n in range(11)))
    rec.residual("duplication_corrected[n<=10]", {"n_max": 10}, worst, "duplication_corrected")
    rec.measure("duplication-formula-power",
                printed_residual_at_n1=identities.duplication_check(1).printed,
                corrected_max_residual=worst)

    # hyperspherical orthonormality on the 3-sphere
    s3 = quadrature.s3_rule(24, 24, 25)
    states = [(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
    fields = [identities.hyperspherical_on_s3(n, l, m, s3) for (n, l, m) in states]
    worst = _worst(*(abs(complex(np.sum(s3.weights * np.conj(fi) * fj)) - (1.0 if i == j else 0.0))
                     for i, fi in enumerate(fields) for j, fj in enumerate(fields)))
    rec.residual("hyperspherical_orthonormality[n<=3]", {"states": len(states)}, worst,
                 "hyperspherical_orthonormality")

    # harmonicity of the homogeneous extension (4-D five-point Laplacian)
    worst = 0.0
    h = 1e-3
    for (n, l, m) in [(2, 1, 0), (3, 1, 1), (3, 2, -1), (4, 2, 2)]:
        for _ in range(2):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            v = v * rng.uniform(0.8, 1.2)
            lap = 0.0 + 0.0j
            center = identities.hyperspherical_Y(n, l, m, v)
            for k in range(4):
                vp, vm = v.copy(), v.copy()
                vp[k] += h
                vm[k] -= h
                lap += (
                    identities.hyperspherical_Y(n, l, m, vp)
                    + identities.hyperspherical_Y(n, l, m, vm) - 2.0 * center
                )
            lap /= h * h
            worst = _worst(worst, abs(lap))
    rec.residual("hyperspherical_harmonicity[fd]", {"h": h}, worst,
                 "hyperspherical_harmonicity")
    rec.measure("hyperspherical-radial-exponent", fd_laplacian_max=worst)

    # triple-D Haar integral against 3j products
    worst_sel = 0.0
    for n in (2, 3, 4):
        for l in range(1, min(3, n) + 1):
            worst = 0.0
            for tm1 in range(-(n - 1), n, 2):
                for tm2 in range(-(n - 1), n, 2):
                    m1, m2 = 0.5 * tm1, 0.5 * tm2
                    for m in range(-l, l + 1):
                        chk = identities.triple_D_integral(n, m1, m2, l, m)
                        if m1 + m2 + m == 0:
                            worst = _worst(worst, chk.residual)
                        else:
                            worst_sel = _worst(worst_sel, chk.residual)
            rec.residual(f"triple_D[n={n},l={l}]", {"n": n, "l": l}, worst, "triple_D")
    rec.residual("triple_D_selection_zero[all]", {}, worst_sel, "triple_D_selection")

    # passage between the 4-D harmonics and D-matrix elements
    phases = {}
    for n in range(1, 5):
        for l in range(n):
            phase = identities.passage_phase(n, l)
            phases[f"(n={n},l={l})"] = _jsonify(phase)
            worst = 0.0
            for m in range(-l, l + 1):
                for _ in range(3):
                    chi = rng.uniform(0.25, math.pi - 0.25)
                    th = rng.uniform(0.25, math.pi - 0.25)
                    ph = rng.uniform(0.0, 2.0 * math.pi)
                    chk = identities.passage_residual(n, l, m, chi, th, ph, phase=phase)
                    worst = _worst(worst, chk.residual)
            rec.residual(f"passage[n={n},l={l}]", {"n": n, "l": l, "phase": phase}, worst,
                         "passage")
            rec.case(f"passage_phase_unit[n={n},l={l}]", {"n": n, "l": l},
                     phase, 1.0 + 0.0j, "passage_phase")
    rec.measure("passage-formula-m-structure", phase_per_nl=phases)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES = {
    "hydrogen": suite_hydrogen,
    "maps": suite_maps,
    "clifford": suite_clifford,
    "identities": suite_identities,
}


def run_verify(suite: str, seed: int = DEFAULT_SEED, tols: dict | None = None,
               nodes: int | None = None) -> VerificationReport:
    """Run one named suite, "all" of them, or "clifford-det" (the clifford
    suite's determinant sweep alone), and assemble the report.

    Raises ValueError for an unknown suite, a bad seed or node count or a bad
    tolerance override, before any suite body or worker process starts.
    """
    if suite == "all":
        runs = dict(SUITES)
    elif suite in SUITES:
        runs = {suite: SUITES[suite]}
    elif suite == "clifford-det":
        runs = {suite: _clifford_det}
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}, 'all' or 'clifford-det'"
        )
    _check_seed_and_nodes(seed, nodes)
    seed = int(seed)  # a numpy integer would not serialize
    validate_tolerances(tols)
    t0 = time.perf_counter()
    workers = min(len(runs), os.cpu_count() or 1)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        results = _forked(list(runs), workers, seed, tols, nodes)
    else:
        results = [run(seed, tols, nodes) for run in runs.values()]
    cases = []
    discrepancies = []
    for cs, ds in results:
        cases.extend(cs)
        discrepancies.extend(ds)
    elapsed = int(round(1000.0 * (time.perf_counter() - t0)))
    return VerificationReport(suite, cases, seed, elapsed, discrepancies)


def _forked(names: list, workers: int, seed, tols, nodes) -> list:
    """Each named suite's (cases, discrepancies), in ``names`` order, from a
    pool of ``workers`` forked processes.

    The suites are mostly Python-level numpy calls that hold the GIL, so
    threads would not run them side by side.  Each worker calls the
    ``SUITES`` entry it inherited through ``fork``, so no callable is pickled
    and a patched entry runs as patched.  A suite whose worker died, or whose
    result could not be sent back, becomes one failed ``suite_error`` case.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(_run_suite, name, seed, tols, nodes) for name in names]
        results = []
        for name, future in zip(names, futures):
            try:
                results.append(future.result())
            except Exception as exc:  # BrokenProcessPool, or a result that would not pickle
                rec = _Recorder(tols)
                # this frame: the pool's own frames move with the Python version
                rec.error(name, exc, depth=0)
                results.append((rec.cases, []))
    return results


def _run_suite(name: str, seed, tols, nodes) -> tuple:
    """A worker's task: the suite ``SUITES[name]`` of this process."""
    return SUITES[name](seed, tols, nodes)
