"""Hydrogen-atom momentum-space toolkit.

Subpackages:

* ``specfun``    - special-function kernels (Laguerre, Gegenbauer, spherical
  harmonics and Bessel functions, Wigner 3j and D).
* ``hydrogen``   - bound states in position and momentum space, the sphere
  projection of momentum space, generating functions and their numeric
  coefficient extraction.
* ``quadmaps``   - the quadratic norm-squaring maps R^2->R^2, R^4->R^3,
  R^8->R^5 and the lifted 3-space integral.
* ``clifford``   - the recursive anticommuting matrix family and its Gaussian
  determinant identities.
* ``identities`` - the Gegenbauer / hyperspherical identity checks.
* ``quadrature`` - Gauss rules, product angular grids, the radial Hankel
  transform, a seeded randomly shifted lattice rule for Gaussian averages.
* ``verify``     - verification suites producing machine-readable reports.
* ``cli``        - the ``fockspace`` command-line tool.

All physical quantities are in atomic units.  A submodule is imported the
first time it is used (``fockspace.verify`` or ``from fockspace import
verify``), so a command loads only the modules it runs.
"""

import importlib

__all__ = [
    "clifford", "hydrogen", "identities", "quadmaps", "quadrature",
    "specfun", "verify",
]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: called only for names not yet bound; the import binds them
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
