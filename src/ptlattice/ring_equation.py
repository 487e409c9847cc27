"""The flux ring's boundary equation and the exact count of its real levels.

A flux ring is a periodic chain with one real hopping t > 0, flux theta per
bond and end terms g e^(i phi)|1><1| + g e^(-i phi)|L><L| (its record,
``nonbloch._Ring``, is read from a model by ``nonbloch._ring_parameters``).
In units of t, r = g/t, the ring's boundary equation has two curves over
gamma, each with one builder here (``_ring_circle``, ``_ring_re_k``).
``_real_state_counts`` counts the real levels of many rings of one size L
in one call, each a row of r, cos(phi) and cos(theta L), without a solve
and each root certified (Yokomizo & Murakami, PRL 123, 066404 (2019));
``nonbloch.unitary_scan`` (a batch of one ring) and ``sweep``'s ring
sweeps and onset scan (one call each) read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# g/t points counted together (see _real_state_counts): each block costs a
# few passes over every sample, and a longer one keeps more samples live
_BLOCK = 32
# (g/t, cell) pairs of D evaluated at once, and undecided cells refined at
# once (a sixteenth as many): bounded arrays let each pass reuse the memory
# of the last one instead of growing the heap
_CELLS = 2**14
# bound on |D| below which roundoff could flip the float sign of D =
# r^2 A - 2 r cos(phi) B + C, per unit of the rounding scales of _terms_at
_ROUNDING = 8.0 * np.finfo(float).eps
# samples of D per unit of L on the circle and on each real-beta axis
# (_ring_chain): they set how many cells are certified at once, not the count
_CIRCLE_SAMPLES = 10
_AXIS_SAMPLES = 2
_EDGE = 0.01  # the edge zones reach gamma, kappa = _EDGE / L from beta = +-1
_FLOOR = 1e-13  # width at which an undecided cell holds a near-double root
# the largest |r| counted: the edge zones' bound on |p''|, about L^5 r^2 / 7.5,
# overflows near r = 1e150 at L = 100, and no cell is certified after it; at
# 1e100 every term stays finite for L below 1e21
_R_MAX = 1e100


# The flux ring's boundary equation in units of t, r = g/t: with
# K = e^(i gamma L) (r^2 e^(-i gamma) - 2 r cos(phi) + 2i sin(gamma)), it reads
# at beta = e^(i*gamma + delta/L), to leading order in 1/L,
#
#     sinh(delta) Re K + i (cosh(delta) Im K - 2 cos(theta L) sin(gamma)) = 0.
#
# Each of its two curves, as (A, B, C) of _quadratic over gamma, has one
# builder: _ring_re_k gives Re K, which off-circle solutions (delta != 0)
# need to vanish, and _ring_circle gives Im K - 2 cos(theta L) sin(gamma),
# the equation itself at delta = 0 (the circle).


def _ring_re_k(gamma: np.ndarray, L: int):
    """Re K of the ring equation above, as (A, B, C) over ``gamma``."""
    return (
        np.cos(gamma * (L - 1)),
        np.cos(gamma * L),
        -2.0 * np.sin(gamma * L) * np.sin(gamma),
    )


def _ring_circle(gamma: np.ndarray, L: int, cos_theta_L: float):
    """Im K - 2 cos(theta L) sin(gamma) of the ring equation above, the
    whole equation on the circle, as (A, B, C) over ``gamma``."""
    return (
        np.sin(gamma * (L - 1)),
        np.sin(gamma * L),
        2.0 * (np.cos(gamma * L) - cos_theta_L) * np.sin(gamma),
    )


def _quadratic(curve, r, cos_phi: float) -> np.ndarray:
    """r^2 A - 2 r cos(phi) B + C on one (A, B, C) curve, elementwise; r may
    be a scalar or an array that broadcasts against the curve.  r^2 is one
    rounded product, so a scalar r and the same r in an array give the same
    bits (pow(r, 2) differs from r * r in the last bit for about 0.1 % of
    doubles)."""
    a, b, c = curve
    return r * r * a - 2.0 * r * cos_phi * b + c


# The count of real levels.  With x = E / 2t = cos(gamma) on the circle and
# x = +-cosh(kappa) on the axes beta = +-e^kappa, D = sin(gamma) p(x) on the
# circle and D = beta^-L (beta - 1/beta) p(x) on the axes, where
#
#     p(x) = r^2 U_(L-2)(x) - 2 r cos(phi) U_(L-1)(x) + 2 (T_L(x) - cos(theta L))
#
# (Chebyshev polynomials T and U) has degree L, and its real roots are the
# ring's real levels.  _ring_chain samples D along the whole real x axis, each
# sample scaled by +-1 so that it has the sign of p; the samples depend on L
# alone, C (and with it D) also on c = cos(theta L), and D on r and cos(phi).
# _real_state_counts counts the roots of p cell by cell, each cell certified
# before it counts.


@dataclass
class _Chain:
    """D of the rings of one size L along the real x axis: the axis
    beta = -e^kappa (kappa falling), the circle (gamma falling) and the axis
    beta = e^kappa (kappa rising), in that order of x, with each sample's
    sign that of p.  Cell k lies between samples k and k + 1; the two cells
    that join the circle to an axis are the edge zones x = -1 and x = +1.
    Only ``terms`` depends on c = cos(theta L) (:meth:`move` refills it for
    another c), and ``zone_terms`` holds p(-+1) at c = 0."""

    L: int
    piece: np.ndarray  # per sample: 0 on the circle, +1 or -1 on the axis beta = +-e^kappa
    u: np.ndarray  # per sample: gamma or kappa
    terms: np.ndarray  # (3, 3, n): A, B, C; their u-derivatives; their rounding scales
    curvature: np.ndarray  # (3, n - 1): bounds on |A''|, |B''|, |C''| over each cell
    width: np.ndarray  # (n - 1,): per cell, its width in gamma or kappa
    steep: np.ndarray  # per sample: the rounding bound of D' over that of D
    zones: np.ndarray  # the two edge-zone cells
    zone_terms: np.ndarray  # (2, 3, 3): per zone, p, p' and |p''| bounds as (A, B, C) at x = -+1
    zone_reach: float  # the largest |x -+ 1| on a zone
    c: float

    def move(self, c: float) -> _Chain:
        """This chain, moved to cos(theta L) = c in place: a count that moves
        through the rings of one L keeps one terms array."""
        self.terms, self.c = _terms_at(self.L, self.piece, self.u, c, self.terms), c
        return self


def _terms_at(L: int, piece: np.ndarray, u: np.ndarray, c, out=None) -> np.ndarray:
    """(3, 3, n) array ``out`` (new when None): A, B, C of D at the samples u
    of the pieces ``piece`` (see :class:`_Chain`) and c = cos(theta L) (a
    scalar or one per sample), their u-derivatives, and scales s with the
    float error of r^2 A - 2 r cos(phi) B + C at most _ROUNDING (r^2 s_A +
    2 |r cos(phi)| s_B + s_C).  On the circle A, B, C are
    :func:`_ring_circle`'s; on an axis they are 2i beta^-L times the
    circle's continued to beta = +-e^kappa, as sums of exponentials in
    kappa, times (-1)^(L+1) on beta = -e^kappa so that D has the sign of p."""
    out = np.empty((3, 3, len(u))) if out is None else out
    c = np.broadcast_to(c, u.shape)
    on = piece == 0
    g = u[on]
    out[0][:, on] = _ring_circle(g, L, c[on])
    sL, cL = np.sin(g * L), np.cos(g * L)
    out[1][:, on] = (
        (L - 1) * np.cos(g * (L - 1)),
        L * cL,
        2.0 * ((cL - c[on]) * np.cos(g) - L * sL * np.sin(g)),
    )
    # the rounding of g (L - 1) and of g L moves sin and cos by up to that times eps
    out[2][:, on] = (1.0 + (L - 1) * g, 1.0 + L * g, 2.0 * (3.0 + L * g))
    for sign in (1, -1):
        on = piece == sign
        k, cs = u[on], c[on]
        ep, em = np.exp(k), np.exp(-k)
        far, half = np.exp(-2 * L * k), np.exp(-L * k)
        scale = sign**L  # sign times (-1)^(L+1) on beta = -e^kappa
        edge = half * scale  # beta^-L
        bracket, q = 1.0 + far - 2.0 * cs * edge, ep - em
        out[0][:, on] = scale * np.array((em - far * ep, sign * (1.0 - far), bracket * q))
        out[1][:, on] = scale * np.array(
            (
                (2 * L - 1) * far * ep - em,
                sign * 2 * L * far,
                2.0 * L * (cs * edge - far) * q + bracket * (ep + em),
            )
        )
        # exp(-lambda kappa) moves by up to lambda kappa eps from the rounding of its argument
        out[2][:, on] = (1.0 + 2.0 * L * k) * np.array(
            (em + far * ep, 1.0 + far, (1.0 + far + 2.0 * abs(cs) * half) * (ep + em))
        )
    return out


def _ring_chain(L: int, r_max: float, c: float) -> _Chain:
    """The :class:`_Chain` of the rings of size L for |r| <= r_max, at
    cos(theta L) = c.  Roots on the axes are bound states with
    |E| <= 2|t| + |g|, below kappa = log(3 (1 + r_max)).  The circle has
    _CIRCLE_SAMPLES L samples on [gamma_e, pi - gamma_e], each axis
    8 _AXIS_SAMPLES geometric ones on [kappa_e, 1/L) and _AXIS_SAMPLES L on
    [1/L, kappa_max], gamma_e = kappa_e = _EDGE / L; only the speed of the
    count depends on these numbers.

    Curvature, for every c (|c| <= 1): on the circle |A''| <= (L - 1)^2,
    |B''| <= L^2 and |C''| <= 2 (L^2 + 2) max|sin| + 4L max|cos| over the
    cell, at most 2 (L^2 + 2L + 2); on an axis each exponential term of A,
    B, C is bounded by its value at the cell's end where it is largest.
    Edge zones: p, p' at x = +-1 in closed form
    (U_n(1) = n + 1, U_n'(1) = n (n+1) (n+2) / 3, T_L'(1) = L^2, and
    U_n''(1) = (n-1) n (n+1) (n+2) (n+3) / 15, T_L''(1) = L^2 (L^2 - 1) / 3,
    the largest |U_n''| and |T_L''| on [-1, 1]); |p''| is bounded by twice
    those, as the zones reach beyond 1 by less than 1e-4 / L^2."""
    edge = _EDGE / L
    # near beta = +-1, D ~ kappa p(+-1) while |D''| ~ L^2: samples there grow geometrically
    start = 1.0 / L
    kappa = np.concatenate(
        (
            np.geomspace(edge, start, _AXIS_SAMPLES * 8, endpoint=False),
            np.linspace(start, math.log(3.0 * (1.0 + r_max)), _AXIS_SAMPLES * L),
        )
    )
    gamma = np.linspace(math.pi - edge, edge, _CIRCLE_SAMPLES * L)
    u = np.concatenate((kappa[::-1], gamma, kappa))
    piece = np.repeat([-1, 0, 1], [len(kappa), len(gamma), len(kappa)])
    terms = _terms_at(L, piece, u, c)

    lo, hi = np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])
    curvature = np.empty((3, len(u) - 1))
    # C'' = -2 ((L^2 + 1) cos(L gamma) - c) sin(gamma) - 4 L sin(L gamma) cos(gamma)
    straddles = (lo < 0.5 * math.pi) & (hi > 0.5 * math.pi)
    top_sin = np.where(straddles, 1.0, np.sin(np.maximum(lo, math.pi - hi)))
    top_cos = np.maximum(np.cos(lo), -np.cos(hi)).clip(0.0)
    curvature[0], curvature[1] = (L - 1) ** 2, L**2
    curvature[2] = 2.0 * (L * L + 2) * top_sin + 4.0 * L * top_cos
    axis = piece[:-1] != 0
    k, k_hi = lo[axis], hi[axis]
    top = (2 * L - 1) ** 2 * np.exp(-(2 * L - 1) * k)
    curvature[:, axis] = (
        np.exp(-k) + top,
        4 * L * L * np.exp(-2 * L * k),
        np.exp(k_hi)
        + np.exp(-k)
        + top
        + (2 * L + 1) ** 2 * np.exp(-(2 * L + 1) * k)
        + 2.0 * (L - 1) ** 2 * np.exp(-(L - 1) * k)
        + 2.0 * (L + 1) ** 2 * np.exp(-(L + 1) * k),
    )
    zones = np.flatnonzero(piece[:-1] != piece[1:])
    # p (at c = 0), p' at x = 1 and bounds on |p''| near it, as (A, B, C)
    # coefficients; at x = -1 p and p' only change signs (U_n(-x) = (-1)^n U_n(x))
    one = np.array(
        [
            [L - 1, L, 2.0],
            [(L - 2) * (L - 1) * L / 3, (L - 1) * L * (L + 1) / 3, 2.0 * L * L],
            [2 * (L - 3) * (L - 2) * (L - 1) * L * (L + 1) / 15,
             2 * (L - 2) * (L - 1) * L * (L + 1) * (L + 2) / 15, 4.0 * L * L * (L * L - 1) / 3],
        ]
    )
    e = (-1) ** L
    zone_terms = np.array((one * [[e, -e, e], [-e, e, -e], [1, 1, 1]], one))
    reach = 2.0 * math.sinh(0.5 * edge) ** 2  # cosh(kappa_e) - 1, above 1 - cos(gamma_e)
    steep = np.where(piece == 0, L + 1.0, 2.0 * L + 1.0)
    return _Chain(L, piece, u, terms, curvature, hi - lo, steep, zones, zone_terms, reach, c)


def _bound(terms: np.ndarray, r, cos_phi: float) -> np.ndarray:
    """r^2 A + 2 |r cos(phi)| B + C on nonnegative (A, B, C); r broadcasts."""
    return r * r * terms[0] + 2.0 * abs(r * cos_phi) * terms[1] + terms[2]


def _certified(d, slope, tol, slope_tol, k2, h) -> np.ndarray:
    """True on cells [a, b] whose roots the ends decide, given D, D' and
    their rounding bounds at a and b (last axis of length 2), |D''| <= k2
    and the width h: no root when both ends have one sure sign and
    min |D| > k2 h^2 / 8 (D lies that close to its chord), or one monotone
    stretch when D' has one sign at both ends and |D'(a)| + |D'(b)| > k2 h
    (D' stays above both lines |D'(end)| - k2 |x - end|, which cross above 0)."""
    sure = abs(d)
    sure -= tol
    one_sign = (d[..., 0] > 0) == (d[..., 1] > 0)
    one_sign &= np.minimum(sure[..., 0], sure[..., 1]) > 0.125 * k2 * h * h
    np.abs(slope, out=sure)  # d and slope have one shape
    sure -= slope_tol
    steep = (slope[..., 0] > 0) == (slope[..., 1] > 0)
    steep &= np.minimum(sure[..., 0], sure[..., 1]) > 0
    return one_sign | steep & (sure[..., 0] + sure[..., 1] > k2 * h)


def _zone_decided(chain: _Chain, r: np.ndarray, cos_phi: float) -> np.ndarray:
    """(rows, 2): whether each edge zone is decided at the rows r (a column):
    no root, when |p(+-1)| exceeds |p'(+-1)| w + max|p''| w^2 / 2 on a zone
    reaching w from x = +-1, or monotone, when |p'(+-1)| > max|p''| w."""
    value, slope, curve = (chain.zone_terms[:, n].T for n in range(3))
    value = value - [[0.0], [0.0], [2.0 * chain.c]]  # p(+-1) holds 2 (T_L(+-1) - c)
    w = chain.zone_reach
    p, dp = _quadratic(value, r, cos_phi), _quadratic(slope, r, cos_phi)
    tol = _ROUNDING * _bound(abs(value), r, cos_phi)
    slope_tol = _ROUNDING * _bound(abs(slope), r, cos_phi)
    k2 = _bound(curve, r, cos_phi)
    return (abs(p) - tol > abs(dp) * w + 0.5 * k2 * w * w) | (abs(dp) - slope_tol > k2 * w)


def _sure_signs(d: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """+-1 where roundoff cannot flip the sign of D, 0 where it could."""
    return (d > tol).view(np.int8) - (d < -tol).view(np.int8)


def _refine(chain: _Chain, r, cos_phi, c, cell, d, slope, tol, slope_tol, k2):
    """Leaves of undecided cells, each halved until it is certified or its
    width reaches _FLOOR; every argument but the chain holds one entry per
    cell, its ring's r, cos(phi) and cos(theta L) first, then the cell and
    its terms, with the two ends on a last axis where it has one.  Returns
    (item, position, signs, flips, undecided) per leaf: the index of its
    cell in the arguments, its left end as a fraction of that cell, the sure
    signs of its ends, whether their (D > 0) flags differ, and whether it is
    undecided."""
    piece, steep = chain.piece[cell], chain.steep[cell]
    item = np.arange(len(cell))
    pos, size = np.zeros(len(cell)), np.ones(len(cell))
    # per cell, at its two ends: u, D, D' and the rounding bounds of D and D'
    ends = np.stack((chain.u[np.column_stack((cell, cell + 1))], d, slope, tol, slope_tol))
    leaves = []
    while True:  # at least once, so that no cells give typed empty leaves
        mid = 0.5 * (ends[0, :, 0] + ends[0, :, 1])
        at = _terms_at(chain.L, piece[item], mid, c[item])
        rr, cp = r[item], cos_phi[item]
        tol_mid = _ROUNDING * _bound(at[2], rr, cp)
        # the left halves, then the right ones
        ends = np.concatenate((ends, ends), axis=1)
        ends[:, : len(mid), 1] = ends[:, len(mid) :, 0] = (
            mid, _quadratic(at[0], rr, cp), _quadratic(at[1], rr, cp),
            tol_mid, tol_mid * steep[item],
        )
        item, size = np.tile(item, 2), np.tile(0.5 * size, 2)
        pos = np.concatenate((pos, pos + size[: len(mid)]))
        u, d, slope, tol, slope_tol = ends
        h = abs(u[:, 1] - u[:, 0])
        ok = _certified(d, slope, tol, slope_tol, k2[item], h)
        leaf = ok | (h <= _FLOOR)
        positive = d[leaf] > 0
        leaves.append(
            (item[leaf], pos[leaf], _sure_signs(d[leaf], tol[leaf]),
             positive[:, 0] != positive[:, 1], ~ok[leaf])
        )
        item, pos, size, ends = item[~leaf], pos[~leaf], size[~leaf], ends[:, ~leaf]
        if not len(item):
            return tuple(np.concatenate(parts) for parts in zip(*leaves))


def _span_count(signs: np.ndarray, undecided: np.ndarray) -> int:
    """Roots along one r's leaves in chain order, from their ends' sure
    signs (n, 2): the sign changes between consecutive sure signs, plus 2
    for each stretch between two equal sure signs that holds an undecided
    leaf.  Between consecutive sure signs every other leaf has an end whose
    sign is unsure, so it is monotone, all of them the same way, and they
    hold one root when the signs differ and none when they agree."""
    flat = signs.ravel()
    sure = np.flatnonzero(flat)
    values = flat[sure]
    count = np.count_nonzero(values[1:] != values[:-1])
    at = np.flatnonzero(undecided)
    before = np.searchsorted(sure, 2 * at, side="right") - 1
    after = np.searchsorted(sure, 2 * at + 1)
    inner = (before >= 0) & (after < len(sure))
    before, after = before[inner], after[inner]
    return count + 2 * len(set(before[values[before] == values[after]].tolist()))


def _real_state_counts(L: int, r, cos_phi, cos_theta_L) -> tuple[np.ndarray, np.ndarray]:
    """(count, near) per row of r = g/t, cos(phi) and cos(theta L) (a 1-D
    array r, the others broadcast against it; rows in any order): the
    number of real levels of the flux ring of size L at that row, and
    whether a near-double root set it.  All rows read one chain
    (:func:`_ring_chain`, up to the largest |r|), whose terms are built once
    per distinct cos(theta L); the rows that share cos(theta L) and cos(phi)
    are one ring's r.  |r| above _R_MAX raises ValueError.

    The count is exact: every cell it counts is certified
    (:func:`_certified`) to hold no root, or to be monotone, so that it
    holds a root exactly where its ends change sign.  A cell that is
    neither is halved until it is, or until its width reaches _FLOOR
    (:func:`_refine`); an edge zone is decided by :func:`_zone_decided` and
    is not split.  A cell still undecided holds a near-double root: the
    stretch between the sure signs around it counts as its sign change, or
    as 2 real roots when those signs agree (the call the dense Im cut makes
    on such a pair), and ``near`` is True on that row.

    Block by block: the rows that share cos(theta L) and cos(phi) (a row
    with r = 0, where D = C, takes the least cos(phi) of the rows with
    r != 0, so that it joins their ring) are cut, by ascending r, into
    blocks of _BLOCK rows, each reaching to the next block's first r.  At a
    sample, D and D' are quadratics in r, with their extremes over the
    block at the block's ends and at their vertices; so the least |D| and
    |D'| over the block certify a cell for every row of the block at once
    (:func:`_block_extremes`).  Cells with no root anywhere in the block are
    skipped; the others are counted per row, as (row, cell) arrays of at
    most _CELLS entries, and only those that are not monotone throughout
    the block are tested per row.  The cells left undecided, of every ring
    so far, are refined together in batches of at most _CELLS // 16, or of
    one pass's cells where a pass leaves more.  Roots are counted as changes
    of the (D > 0) flag: where roundoff could flip a sign, both cells around
    it are monotone the same way, so either flag gives the same count.  A
    row with an undecided cell, a cell with no sure end, or an edge zone
    with an end whose sign is unsure is counted again from sure signs alone
    (:func:`_span_count`), which also sets its ``near``.
    """
    r, cos_phi, c = np.array(np.broadcast_arrays(r, cos_phi, cos_theta_L), dtype=float)
    if not (r_max := float(np.abs(r).max())) <= _R_MAX:
        raise ValueError(f"the real-level count needs |g/t| <= {_R_MAX:.0e}, got {r_max:.6g}")
    cos_phi[r == 0] = cos_phi[r != 0].min(initial=1.0)
    order = np.lexsort((r, cos_phi, c))
    cuts = np.flatnonzero((np.diff(c[order]) != 0) | (np.diff(cos_phi[order]) != 0)) + 1
    chain = _ring_chain(L, r_max, c[order[0]])
    counts = np.zeros(len(r), dtype=np.intp)
    near, slow = np.zeros((2, len(r)), dtype=bool)
    pending: list = []

    def refine_pending():
        """Refine the cells held in ``pending`` and add their roots."""
        if not pending:
            return
        row, *undecided = (np.concatenate(parts) for parts in zip(*pending))
        pending.clear()
        item, _, signs, flips, open_ = _refine(chain, r[row], cos_phi[row], c[row], *undecided)
        counts[:] += np.bincount(row[item[flips & ~open_]], minlength=len(r))
        slow[row[item[open_ | (signs == 0).all(axis=1)]]] = True

    for ring in np.split(order, cuts):
        if c[ring[0]] != chain.c:
            chain.move(c[ring[0]])
        phase = cos_phi[ring[0]]
        for start in range(0, len(ring), _BLOCK):
            block = ring[start : start + _BLOCK]
            r_lo, r_hi = r[block[0]], r[ring[min(start + _BLOCK, len(ring) - 1)]]
            live, steady, tol = _block_cells(chain, r_lo, r_hi, phase)
            rows = max(1, _CELLS // (2 * len(live)))
            for lo in range(0, len(block), rows):
                part = block[lo : lo + rows]
                level = _count_rows(chain, phase, r[part, None], live, steady, tol)
                counts[part] += level.count
                slow[part] |= level.slow
                if sum(len(held[0]) for held in pending) + len(level.row) > _CELLS // 16:
                    refine_pending()
                pending.append((part[level.row], *level.undecided))
    refine_pending()
    for n in np.flatnonzero(slow):
        counts[n], near[n] = _sure_count(chain.move(c[n]), cos_phi[n], r[n])
    return counts, near


def _block_extremes(chain: _Chain, r_lo: float, r_hi: float, cos_phi: float, tol) -> np.ndarray:
    """(2, 2, n): for D and for D' at every sample, the least |value| over
    r in [r_lo, r_hi] less its rounding bound (from ``tol``, D's bound;
    <= 0 where the sign can change), and the sign it keeps."""
    out = np.empty((2, 2, len(chain.u)))
    for n, (terms, bound) in enumerate(zip(chain.terms[:2], (tol, chain.steep * tol))):
        ends = _quadratic(terms, np.array([[r_lo], [r_hi]]), cos_phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = cos_phi * terms[1] / terms[0]  # not finite where A = 0: never inside
        inside = (vertex > r_lo) & (vertex < r_hi)
        at_vertex = _quadratic(terms, np.where(inside, vertex, 0.0), cos_phi)
        at_vertex = np.where(inside, at_vertex, ends[0])
        least = np.minimum(ends.min(axis=0), at_vertex)
        most = np.maximum(ends.max(axis=0), at_vertex)
        out[n, 0] = np.where(least > 0, least, np.where(most < 0, -most, 0.0)) - bound
        out[n, 1] = np.sign(least)
    return out


def _block_cells(chain: _Chain, r_lo: float, r_hi: float, cos_phi: float):
    """(live, steady, tol): the cells that may hold a root at some r in
    [r_lo, r_hi], by :func:`_block_extremes` and the chord bound, per live
    cell whether it is monotone at every such r (never an edge zone), and
    the rounding bound of D at every sample over the block."""
    top = max(abs(r_lo), abs(r_hi))
    k2h = _bound(chain.curvature, top, cos_phi) * chain.width
    tol = _ROUNDING * _bound(chain.terms[2], top, cos_phi)
    margin, sign = _block_extremes(chain, r_lo, r_hi, cos_phi, tol).swapaxes(0, 1)
    # per cell, for D and for D': both ends keep one sure sign, the same
    one_sign = (margin[:, :-1] > 0) & (margin[:, 1:] > 0) & (sign[:, :-1] == sign[:, 1:])
    fixed = one_sign[0] & (np.minimum(margin[0, :-1], margin[0, 1:]) > 0.125 * k2h * chain.width)
    steady = one_sign[1] & (margin[1, :-1] + margin[1, 1:] > k2h)
    fixed[chain.zones] = steady[chain.zones] = False
    live = np.flatnonzero(~fixed)
    return live, steady[live], tol


@dataclass(frozen=True)
class _Level:
    """One pass of :func:`_count_rows` over the rows r of a block."""

    count: np.ndarray  # roots in the cells decided at the cells' own width
    slow: np.ndarray  # rows to count again from sure signs
    signs: np.ndarray  # (rows, cells, 2): sure signs at the cells' ends
    done: np.ndarray  # (rows, cells): decided cells
    row: np.ndarray  # per undecided cell: its row
    col: np.ndarray  # per undecided cell: its index in ``live``
    undecided: tuple  # per undecided cell: _refine's cell, d, slope, tol, slope_tol, k2


def _count_rows(chain: _Chain, cos_phi: float, r: np.ndarray, live, steady, tol) -> _Level:
    """The cells ``live`` at the rows r (a column) of one block, ``steady``
    flagging those that are monotone throughout it; ``tol`` bounds the
    rounding of D at every sample over the block."""
    used = np.zeros(len(chain.u), dtype=bool)
    used[live] = used[live + 1] = True
    samples = np.flatnonzero(used)
    ends = np.searchsorted(samples, np.column_stack((live, live + 1)))
    terms, slopes, _ = chain.terms
    tol = tol[samples]
    d = _quadratic(terms[:, samples], r, cos_phi)
    zone = (live == chain.zones[0]) | (live == chain.zones[1])
    check = np.flatnonzero(~steady & ~zone)
    cells, at = live[check], ends[check]
    slope = _quadratic(slopes[:, samples[at]], r[:, :, None], cos_phi)
    slope_tol = (tol * chain.steep[samples])[at]
    k2 = _bound(chain.curvature[:, cells], r, cos_phi)
    done = np.ones((len(r), len(live)), dtype=bool)
    done[:, check] = _certified(d[:, at], slope, tol[at], slope_tol, k2, chain.width[cells])
    done[:, zone] = _zone_decided(chain, r, cos_phi)
    signs = _sure_signs(d, tol)[:, ends]
    positive = (d > 0)[:, ends]
    slow = (~done[:, zone]).any(axis=1) | (signs[:, zone] == 0).any(axis=(1, 2))
    slow |= (done & (signs[..., 0] == 0) & (signs[..., 1] == 0)).any(axis=1)
    row, j = np.nonzero(~done[:, check])
    col = check[j]
    undecided = (
        live[col], d[row[:, None], ends[col]], slope[row, j], tol[ends[col]], slope_tol[j],
        k2[row, j],
    )
    return _Level(
        np.count_nonzero((positive[..., 0] != positive[..., 1]) & done, axis=1),
        slow, signs, done, row, col, undecided,
    )


def _sure_count(chain: _Chain, cos_phi: float, r: float) -> tuple[int, bool]:
    """(count, near) of :func:`_real_state_counts` at one r, counted by
    :func:`_span_count` over every cell of the chain in order."""
    live = np.arange(len(chain.u) - 1)
    tol = _ROUNDING * _bound(chain.terms[2], r, cos_phi)
    level = _count_rows(chain, cos_phi, np.array([[r]]), live, np.zeros(len(live), bool), tol)
    ring = (np.full(len(level.row), x) for x in (r, cos_phi, chain.c))
    item, pos, signs, _, undecided = _refine(chain, *ring, *level.undecided)
    keep = level.done[0].copy()
    keep[chain.zones] = True  # an undecided zone is a leaf
    keep = np.flatnonzero(keep)
    where = np.concatenate((keep.astype(float), level.col[item] + pos))
    order = np.argsort(where, kind="stable")
    open_ = np.concatenate((~level.done[0, keep], undecided))[order]
    count = _span_count(np.concatenate((level.signs[0, keep], signs))[order], open_)
    return count, bool(open_.any())
