"""Exception classes, grouped by how the command line reports them.

Input problems (malformed files, bad permutation data, degenerate weights,
bad configuration) raise :class:`InputError` subclasses; hypothesis failures
(the given curve systems cannot span a geodesic) raise
:class:`HypothesisError` subclasses; numerical non-convergence and violated
certificates get their own classes.  ``cli`` maps these to exit codes
2 / 3 / 4 / 5 respectively.  Array kernels record their checks in a
:class:`Checks`.

Every origeo module takes NumPy as ``from .errors import np``.  Unless NumPy
is imported already, ``np`` is a lazy module that loads NumPy at the first
array operation: importing NumPy is about half of a cold ``validate``, which
runs no array.  One plain ``import numpy`` anywhere in origeo loads it at
once, since the import statement reads the module's ``__spec__``.

origeo's own layers past ``origami`` share that handle: ``import origeo``
registers each of them as a lazy module, which loads at its first
attribute access, so a cold ``validate`` or ``--help`` runs only
``errors``, ``origami`` and ``cli``.  The two values the
command line's parser and configuration read, :data:`DEFAULT_TOL` and
:data:`SUITE_NAMES`, are defined here for that reason.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """The module ``name``, loaded on its first attribute access unless it is
    imported already (the recipe of the :mod:`importlib` documentation)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# 3.11's LazyLoader is not thread-safe on first access; origeo is single-threaded.
np = _lazy_import("numpy")

# The relative width an eigenvalue bracket must reach (``perron_solve``).
DEFAULT_TOL = 1e-12
# The self-check suites of ``origeo.checks``, in the order they run.
SUITE_NAMES = ("gauss-bonnet", "perron-oracle", "primitivity-oracle", "minsky",
               "sandwich", "walsh-consistency", "interval-soundness")


class InputError(ValueError):
    """Malformed input data or configuration."""


class InvalidOrigami(InputError):
    """Permutation data does not describe a connected square-tiled surface."""


class ComplexityError(InvalidOrigami):
    """The surface is a torus or sphere cover of genus < 2."""


class SideMismatch(InputError):
    """Curve families on incompatible sides for the requested pairing."""


class HostMismatch(InputError):
    """Objects attached to different origamis were combined."""


class HypothesisError(Exception):
    """The mathematical hypotheses of the construction fail for this input."""


class NotFillingError(HypothesisError):
    """The two transverse families do not jointly fill the surface."""


class NotPrimitiveError(HypothesisError):
    """The coupling matrix is not primitive (zero line or disconnected)."""


class NoConvergenceError(Exception):
    """Iteration budget exhausted before the residual tolerance was met."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class CertificationError(Exception):
    """An internal cross-check that must hold mathematically has failed."""


class Checks(list):
    """A block's checks in a row loop's order: per check a mask over the rows
    (one row stands for all) and the function giving a failing row's error.

    As a context, it runs the block with NumPy's float warnings off (a
    failing row leaves inf and nan in the arrays on its way) and raises
    what failed at the end."""

    def __enter__(self) -> "Checks":
        self._quiet = np.errstate(all="ignore")
        self._quiet.__enter__()
        return self

    def __exit__(self, kind, *exc) -> None:
        self._quiet.__exit__(kind, *exc)
        if kind is None:
            self.raise_first()

    def add(self, failed, error) -> None:
        self.append((np.asarray(failed), error))

    def raise_first(self) -> None:
        """Raise what the loop raised: the error of the earliest failing row,
        and within it of the first failing check."""
        if any(np.count_nonzero(failed) for failed, _ in self):
            masks = np.array(np.broadcast_arrays(*(np.atleast_1d(f) for f, _ in self)))
            row = int(masks.any(axis=0).argmax())
            raise self[int(masks[:, row].argmax())][1](row)


def checked(kernel, *args):
    """``kernel(*args, checks)`` in a :class:`Checks` context, raising what
    its checks raise: the one-row view of a row kernel."""
    with Checks() as checks:
        return kernel(*args, checks)


def at(column, row: int):
    """Row ``row`` of a column (one row stands for all), as a Python number."""
    values = np.ravel(column).tolist()
    return values[row if len(values) > 1 else 0]
