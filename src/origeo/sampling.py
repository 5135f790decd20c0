"""Seeded random generators for origamis, weights, and boundary data.

Everything here is driven by an explicit ``random.Random`` instance so
that check suites and tests replay bit-for-bit from a seed.  Generators
use rejection sampling against structural constraints (connectivity,
genus, primitivity); the retry caps are generous enough that hitting one
means the constraints were mutually unsatisfiable, not bad luck.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import InputError, InvalidOrigami
from .multicurve import BusemannSpec
from .origami import (HORIZONTAL, VERTICAL, IntersectionMatrix, Origami,
                      support_is_primitive)
from .surface import WeightedSurface

_MAX_TRIES = 10_000


def random_permutation(rng: random.Random, n: int) -> Tuple[int, ...]:
    """A uniformly random permutation of 1..n in one-line notation."""
    cells = list(range(1, n + 1))
    rng.shuffle(cells)
    return tuple(cells)


def random_connected_origami(rng: random.Random, n: int) -> Origami:
    """The origami of the first random pair of permutations of 1..n that
    generates a transitive action."""
    for _ in range(_MAX_TRIES):
        h = random_permutation(rng, n)
        v = random_permutation(rng, n)
        try:
            return Origami(n, h, v)
        except InvalidOrigami:
            continue
    raise InputError(f"no transitive pair found for n={n} (should not happen)")


def random_transitive_pair(
    rng: random.Random, n: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Two permutations of 1..n generating a transitive action."""
    o = random_connected_origami(rng, n)
    return o.h, o.v


def random_origami(
    rng: random.Random,
    n_range: Tuple[int, int] = (3, 8),
    min_genus: Optional[int] = None,
) -> Origami:
    """A random connected origami, optionally rejection-filtered by genus."""
    lo, hi = n_range
    for _ in range(_MAX_TRIES):
        n = rng.randint(lo, hi)
        o = random_connected_origami(rng, n)
        if min_genus is not None and o.genus() < min_genus:
            continue
        return o
    raise InputError(
        f"no origami with n in {n_range} and genus >= {min_genus} found"
    )


def random_fraction(rng: random.Random) -> Fraction:
    """A positive rational p/q with 1 <= p <= 4 and 1 <= q <= 3."""
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def random_surface(rng: random.Random, origami: Origami) -> WeightedSurface:
    """Positive rational heights and widths on all cylinders of the origami."""
    heights = {c.label: random_fraction(rng) for c in origami.cylinders(HORIZONTAL)}
    widths = {c.label: random_fraction(rng) for c in origami.cylinders(VERTICAL)}
    return WeightedSurface(origami, heights, widths)


def jitter_factors(
    rng: random.Random, labels: Sequence[str], eps: float
) -> Dict[str, float]:
    """Multiplicative factors exp(u), u uniform in [-eps, eps], per label.

    At eps = 0 every factor is exactly 1.0, so jittering with eps = 0 is
    the identity bit-for-bit.
    """
    if eps < 0:
        raise InputError(f"jitter amplitude must be nonnegative, got {eps}")
    return {lab: math.exp(rng.uniform(-eps, eps)) for lab in labels}


def jittered_surface(
    rng: random.Random, surface: WeightedSurface, eps: float
) -> Tuple[WeightedSurface, Dict[str, float], Dict[str, float]]:
    """Perturb each cylinder weight by a factor in [e^-eps, e^eps].

    Returns the perturbed surface together with the height- and width-side
    factors actually used, so callers can form geometric-mean proxies.
    """
    hf = jitter_factors(rng, list(surface.heights), eps)
    wf = jitter_factors(rng, list(surface.widths), eps)
    heights = {lab: w * hf[lab] for lab, w in surface.heights.items()}
    widths = {lab: w * wf[lab] for lab, w in surface.widths.items()}
    return WeightedSurface(surface.origami, heights, widths), hf, wf


def random_matrix(
    rng: random.Random,
    rows: int,
    cols: int,
    max_entry: int = 3,
    zero_chance: float = 0.35,
) -> Tuple[Tuple[int, ...], ...]:
    """A random nonnegative integer matrix with a tunable density of zeros."""
    return tuple(
        tuple(
            0 if rng.random() < zero_chance else rng.randint(1, max_entry)
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def submatrix_is_primitive_shape(matrix: IntersectionMatrix, row_support: Iterable[str],
                                 col_support: Iterable[str]) -> bool:
    """:func:`~origeo.origami.support_is_primitive` on the rows and
    columns of the supports, read off the nonzero cells of N."""
    pos = {matrix.col_index[lab]: p for p, lab in enumerate(col_support)}
    row_cols = [[pos[j] for j, _ in matrix.sparse_rows[matrix.row_index[lab]] if j in pos]
                for lab in row_support]
    return support_is_primitive(row_cols, len(pos))


def random_primitive_instance(
    rng: random.Random,
    n_range: Tuple[int, int] = (3, 8),
    max_components: int = 4,
    max_entry: int = 3,
) -> Tuple[Origami, BusemannSpec, BusemannSpec]:
    """A genus >= 2 origami plus a transverse pair of specs with a connected
    restricted support; most draws do not fill.

    The two specs select random sub-families of the vertical/horizontal
    cores (at most ``max_components`` each) whose restricted intersection
    matrix has entries at most ``max_entry``, no zero line, and a connected
    support graph; coefficients are small positive rationals.
    """
    for _ in range(_MAX_TRIES):
        o = random_origami(rng, n_range, min_genus=2)
        ver = [c.label for c in o.cylinders(VERTICAL)]
        hor = [c.label for c in o.cylinders(HORIZONTAL)]
        k = rng.randint(1, min(max_components, len(ver)))
        l = rng.randint(1, min(max_components, len(hor)))
        vs = sorted(rng.sample(ver, k))
        hs = sorted(rng.sample(hor, l))
        n = o.intersection_matrix()
        cols = {n.col_index[b] for b in vs}
        rows = (n.sparse_rows[n.row_index[a]] for a in hs)
        if any(e > max_entry for row in rows for j, e in row if j in cols):
            continue
        if not submatrix_is_primitive_shape(n, frozenset(hs), frozenset(vs)):
            continue
        xi = BusemannSpec(o, VERTICAL, {b: random_fraction(rng) for b in vs})
        eta = BusemannSpec(o, HORIZONTAL, {a: random_fraction(rng) for a in hs})
        return o, xi, eta
    raise InputError("no primitive instance found (should not happen)")


def random_full_instance(
    rng: random.Random, n_range: Tuple[int, int] = (3, 8)
) -> Tuple[Origami, BusemannSpec, BusemannSpec]:
    """Like random_primitive_instance but always using all cores per side.

    Full-support pairs on a connected origami always fill (the origami's
    constructor certified N primitive), so these instances carry a flat
    realization (a base surface).
    """
    o = random_origami(rng, n_range, min_genus=2)
    n = o.intersection_matrix()
    xi = BusemannSpec(o, VERTICAL, {b: random_fraction(rng) for b in n.col_labels})
    eta = BusemannSpec(o, HORIZONTAL, {a: random_fraction(rng) for a in n.row_labels})
    return o, xi, eta
