"""Closed-form fusion rules for pairs of Gaussian estimates.

Covariance intersection with a trace-optimal weight, its block-wise
variant for estimates whose unknown correlation cannot couple different
state blocks, and the minimum-variance rule for the (rare) case where
the cross-covariance is actually known.

Monolithic intersection is block-wise intersection over a partition of
one block (Julier & Uhlmann, ACC 1997), so one private core, ``_nmci``,
serves both rules in the tracker, and ``nmci_fuse``.  It works on
block-diagonal covariances stored as stacks of their diagonal blocks
(see ``core.StackLayout``) and fuses each piece with ``_ci``.  Stacks
may carry leading batch axes, and every batch entry is fused on its own,
with the weights, gains and bounds a call of its own would give.  The
core fuses only the entries inside the pieces where stack blocks meet
partition blocks and reads no other entry.  It takes lanes, each its own
stacks, partition and fold, and runs one weight search over all of them.
The tracker calls it directly on its filters' stacks, one call per wave
for every fusing method: a lane per method, one batch entry per edge of
a wave of edges that share no agent.  Its layout decides once per
scenario which entries lie outside the pieces (``_Pieces.off``), and
its ``_Fold`` which (edge, piece) pairs are equal, so that each
distinct one is intersected once; the fold also holds the indices
that gather, order and scatter them, built once per fold.
``nmci_fuse``
passes a dense covariance, unbatched, as a stack of one block, every
piece its own class; it first measures the off-block mass of its
inputs, in any units, and refuses inputs that couple different partition
blocks, since block-wise intersection is conservative only where they
do not.  ``ci_fuse`` searches the weight over the trace terms of the two
covariances, as ``_nmci`` does for one block, and intersects them with
``_ci``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BlockPartition,
    DimensionError,
    FusionError,
    FusionMethod,
    FusionResult,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    StackLayout,
    _unit_scaled,
    check_spd,
    min_eigenvalue,
    symmetrize,
)

OMEGA_TOL = 1e-8
# relative off-block Frobenius mass block-wise fusion tolerates as zero
OFF_BLOCK_TOL = 1e-9
# relative objective difference below which two weights count as tied, in any units
_TIE_RTOL = 1e-12
# smallest normal float64: a weight search whose products of terms reach
# below it, in the segment's own units, is decided without one
_TINY = np.finfo(float).tiny


def _check_same_labels(a: GaussianEstimate, b: GaussianEstimate) -> None:
    if a.labels == b.labels:
        return
    if set(a.labels) == set(b.labels):
        raise DimensionError(
            "estimates carry the same labels in different orders; "
            "call .reindex() on one of them before fusing")
    raise DimensionError("estimates describe different state vectors")


def _trace_terms(p_a: np.ndarray, p_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with trace((w*P_a^-1 + (1-w)*P_b^-1)^-1) = sum(a*b / (w*b + (1-w)*a)).

    With P_a = R R^T, P_b = L L^T and the SVD L^-1 R = U diag(s) Z^T, the
    columns of V = L U diagonalize both inputs: P_a = V diag(s^2) V^T and
    P_b = V V^T.  a and b are the variances of P_a and P_b along those
    directions, the squared column norms of R Z and L U.  Taking them from
    singular vectors, rather than as s^2 times a norm, keeps both accurate
    when the ratios s^2 span more decades than float64 resolves.  Both
    inputs must be SPD.  For (..., n, n) stacks, one batched call per
    step gives each matrix's (..., n) terms.
    """
    low_a, low_b = np.linalg.cholesky(p_a), np.linalg.cholesky(p_b)
    u, _, zt = np.linalg.svd(np.linalg.solve(low_b, low_a))
    return (np.sum((low_a @ np.swapaxes(zt, -1, -2)) ** 2, axis=-2),
            np.sum((low_b @ u) ** 2, axis=-2))


def _weights(a: np.ndarray, b: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> list[float]:
    """Trace-optimal weight of each segment of the terms, every segment searched at once.

    Term i belongs to segment seg[i]; segments are contiguous and start
    at ``starts``.  Segment s's objective is sum(a*b / (a + w*(b - a)))
    over its terms.  Objective sums come from one batched evaluation for
    all segments, and each segment's search takes the steps a search of
    its own would take: every operation is elementwise or a sum within
    one segment.  Each segment is searched in its own units: its terms
    times 2^-e, e the binary exponent of its largest term.  That product
    is exact, and f, f' and f'' all scale with the units, so every step
    and decision is the one the unscaled terms would give wherever
    nothing under- or overflows.  A segment where some product a*b falls
    below float64's normal range in its units, whose inputs lie more than
    a hundred decades apart, is decided by dominance (``_dominance``) and
    not searched, so every pair of scales ``check_spd`` accepts gets its
    weight.  Weights whose objectives differ by at most ``_TIE_RTOL``
    relative are tied.  The w = 1 endpoint is evaluated at b itself,
    which a + (b - a) need not round to when b is far below a.
    The endpoint slopes are taken in closed form, f'(0) = -sum(b*(b - a)/a)
    and f'(1) = -sum(a*(b - a)/b), with no squared denominator: when one
    term is far below the other, a*b*(b - a) / a^2 would over- or underflow
    where these do not.  f'' is needed only inside the search.
    """
    e = np.frexp(np.maximum.reduceat(np.maximum(a, b), starts))[1][seg]
    raw, (a, b) = (a, b), (np.ldexp(a, -e), np.ldexp(b, -e))
    ab, settled = a * b, {}
    if ab.min() < _TINY:
        far = np.minimum.reduceat(ab, starts) < _TINY
        settled = _dominance(*raw, starts, np.flatnonzero(far))
        # the search reads ones in their place
        a, b = (np.where(far[seg], 1.0, x) for x in (a, b))
        ab = a * b
    gap = b - a
    abgap = ab * gap

    def sums(x):
        return np.add.reduceat(x, starts, axis=-1)

    def derivatives(den):
        t = abgap / den ** 2
        return (-sums(t)).tolist(), (2.0 * sums(t * gap / den)).tolist()

    n = starts.size
    g0, g1 = (-sums(np.stack([b * gap / a, a * gap / b]))).tolist()
    w = [0.0 if d0 >= 0.0 else 1.0 if d1 <= 0.0 else 0.5 for d0, d1 in zip(g0, g1)]
    # f' is increasing and changes sign inside [lo, hi] of each active segment
    active = [s for s in range(n) if not (g0[s] >= 0.0 or g1[s] <= 0.0)]
    lo, hi = [0.0] * n, [1.0] * n
    while True:
        active = [s for s in active if hi[s] - lo[s] > OMEGA_TOL]
        if not active:
            break
        g, h = derivatives(a + np.asarray(w)[seg] * gap)
        searching = []
        for s in active:
            step = g[s] / h[s]
            if abs(step) < OMEGA_TOL:
                w[s] -= step
                continue
            lo[s], hi[s] = (lo[s], w[s]) if g[s] > 0.0 else (w[s], hi[s])
            w[s] = w[s] - step if lo[s] < w[s] - step < hi[s] else 0.5 * (lo[s] + hi[s])
            searching.append(s)
        active = searching
    den = np.vstack([a + np.array([w, [0.5] * n, [0.0] * n])[:, seg] * gap, b])
    fw, f_half, f_zero, f_one = sums(ab / den).tolist()
    out = []
    for s in range(n):
        slack = _TIE_RTOL * abs(fw[s])
        if abs(f_half[s] - fw[s]) <= slack:
            out.append(0.5)
        elif f_zero[s] <= fw[s] + slack or w[s] < OMEGA_TOL:
            out.append(0.0)
        elif f_one[s] <= fw[s] + slack or w[s] > 1.0 - OMEGA_TOL:
            out.append(1.0)
        else:
            out.append(w[s])
    for s, w_s in settled.items():
        out[s] = w_s
    return out


def _dominance(a: np.ndarray, b: np.ndarray, starts: np.ndarray, far) -> dict[int, float]:
    """Weights of the segments ``far`` lists, where a product a*b underflows in their units.

    Such a segment holds a term below 2^-510 times its largest.  A term of
    either input lies within that input's eigenvalue range, which
    ``check_spd`` bounds to 1e12, so every term of one input lies below
    every term of the other.  Where no b term exceeds its a term,
    f'(0) = sum(b*(a - b)/a) >= 0 and f is convex, so w = 0 is the
    minimum, exactly, at any scale; where no a term exceeds its b term,
    w = 1.  Terms on both sides are refused.
    """
    gap = b - a
    below = np.maximum.reduceat(gap, starts)[far] <= 0.0
    above = np.minimum.reduceat(gap, starts)[far] >= 0.0
    if not np.all(below | above):
        raise FusionError("the inputs' variances along their common axes span more than float64 "
                          "resolves, and neither input is tighter along every axis")
    return dict(zip(far.tolist(), np.where(below, 0.0, 1.0).tolist()))


def _ci(p_a: np.ndarray, p_b: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """(gain of a, intersected covariance) of SPD (..., n, n) stacks at weight w.

    ``w`` is one weight, or one per matrix of the stack.  Only the
    matrices whose weight lies strictly inside (0, 1) are intersected;
    where it is 0 (or 1) the bound is P_b (or P_a) itself and the gain
    exactly 0 (or I), with no solve.
    """
    w = np.asarray(w, dtype=float)
    inside = (0.0 < w) & (w < 1.0)
    if inside.all():
        return _intersected(p_a, p_b, w)
    # the layout the gains of an all-inside stack have, so that products
    # with them round the same whichever weights settled
    gain = np.swapaxes(np.zeros(p_a.shape), -1, -2)
    gain[w == 1.0] = np.eye(p_a.shape[-1])
    bound = np.where((w == 0.0)[..., None, None], p_b, p_a)
    if inside.any():
        gain[inside], bound[inside] = _intersected(p_a[inside], p_b[inside], w[inside])
    return gain, bound


def _intersected(p_a: np.ndarray, p_b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_ci`` where every weight lies strictly inside (0, 1)."""
    w = w[..., None, None]
    # with S = w*P_b + (1-w)*P_a, the intersected covariance is
    # P_b S^-1 P_a and the gain of a is w * P_b S^-1
    pb_sinv = np.swapaxes(np.linalg.solve(w * p_b + (1.0 - w) * p_a, p_b), -1, -2)
    return w * pb_sinv, symmetrize(pb_sinv @ p_a)


class _Pieces:
    """Where a partition's blocks lie in stacked covariances of one layout, for ``_nmci``.

    A piece is one stack block intersected with one partition block.
    ``groups`` holds (stack group, whole, part) per stack group and piece
    size, ``part`` naming each piece's partition block.  ``whole`` says
    the pieces are exactly the group's blocks, whole and in order (every
    block of CI's one-block partition, or of a partition made of stack
    blocks), so the stack is read as it is; other pieces are gathered
    from it.  ``shapes`` holds each stack group's (k, n).  ``places``
    holds, per piece group, each piece's block and (u, m) positions
    within it, and ``pos_ids``, computed on first use (only ``_Fold.of``
    reads it), numbers the distinct position lists.  Their trace terms,
    concatenated group by group and taken in ``order``, run partition
    block by partition block (``seg``) from ``starts``.  Numbering the
    pieces the same way, ``by_part`` lists each partition block's pieces
    in that order and ``by_block`` each stack group's blocks' pieces,
    padded with -1.  ``off`` lists, per stack group, the flat entries of
    its (k, n, n) blocks outside every piece.
    """

    def __init__(self, layout: StackLayout, partition: BlockPartition):
        part_of = np.empty(layout.dim, dtype=np.intp)
        for p, blk in enumerate(partition.blocks):
            part_of[list(blk)] = p
        pieces: dict[tuple[int, int], list] = {}
        self.off = []
        for g, states in enumerate(layout.groups):
            parts = part_of[states]
            self.off.append(np.flatnonzero(parts[:, :, None] != parts[:, None, :]))
            for blk, row in enumerate(parts.tolist()):
                by_part: dict[int, list[int]] = {}
                for i, p in enumerate(row):
                    by_part.setdefault(p, []).append(i)
                for p, pos in sorted(by_part.items()):
                    pieces.setdefault((g, len(pos)), []).append((blk, pos, p))
        self.shapes = [states.shape for states in layout.groups]
        self.groups, self.places, term_part = [], [], []
        of_block = [[[] for _ in states] for states in layout.groups]
        first = 0
        for (g, m), items in pieces.items():
            blk, pos, part = (np.array(column) for column in zip(*items))
            self.groups.append((g, (blk.size, m) == self.shapes[g], part))
            self.places.append((blk, pos))
            term_part.append(np.repeat(part, m))
            for u, b in enumerate(blk.tolist()):
                of_block[g][b].append(first + u)
            first += blk.size
        piece_part = np.concatenate([part for _, _, part in self.groups])
        self.by_part = _padded([np.flatnonzero(piece_part == p).tolist()
                                for p in range(partition.n_blocks)])
        self.by_block = [_padded(blocks) for blocks in of_block]
        term_part = np.concatenate(term_part)
        self.order = np.argsort(term_part, kind="stable")
        self.seg = term_part[self.order]
        self.starts = np.searchsorted(self.seg, np.arange(partition.n_blocks))
        self._flat: dict[int, list] = {}

    @cached_property
    def pos_ids(self) -> list[np.ndarray]:
        return [np.unique(pos, axis=0, return_inverse=True)[1].ravel() for _, pos in self.places]

    def flat(self, n_entries: int) -> list:
        """Per piece group, where its pieces lie in (n_entries, k, n, n) stacks, flattened.

        None for a group whose pieces are its blocks, else the (n_entries
        * u, m, m) flat positions of every (batch entry, piece).  Built
        once per entry count, and shared by every fold of that count.
        """
        if n_entries not in self._flat:
            entries, out = np.arange(n_entries)[:, None], []
            for (g, whole, _), (blk, pos) in zip(self.groups, self.places):
                k, n = self.shapes[g]
                m = pos.shape[1]
                out.append(None if whole else
                           (((entries * k + blk)[..., None, None] * n + pos[:, :, None]) * n
                            + pos[:, None, :]).reshape(-1, m, m))
            self._flat[n_entries] = out
        return self._flat[n_entries]


def _padded(rows: list[list[int]]) -> np.ndarray:
    """Lists of indices as the rows of one array, padded with -1."""
    out = np.full((len(rows), max(map(len, rows))), -1, dtype=np.intp)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise equal rows of a (rows, c) array as classes: (class of each row, first row of each).

    Classes are numbered in the order of their first rows.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
    ids: dict = {}
    first, inverse = [], []
    for i, row in enumerate(rows):
        c = ids.setdefault(row, len(first))
        if c == len(first):
            first.append(i)
        inverse.append(c)
    return np.array(inverse, dtype=np.intp), np.array(first, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class _Fold:
    """Which (batch entry, piece) pairs of one ``_nmci`` lane are equal, so each is computed once.

    ``fused`` holds per piece group (pair, weight, inverse) for the
    classes of equal intersections: each one's input pair class and flat
    index into the (batch, partition blocks) weights, whose gain and bound
    are computed, and the class of every (batch entry, piece), flattened.
    The rest is the fold's plan, built with it (``_plan``), so a fold used
    by many calls, as ``sim._class_schedule`` shares them, builds it once.
    Per piece group, ``gather`` holds (shape, index): the group's stacks,
    reshaped to ``shape``, taken at ``index`` along their first axis give
    one representative of each class of equal input pairs, whole blocks
    for a group whose pieces are its blocks, else (reps, m, m) pieces of
    the flat stacks.  ``term`` takes every batch entry's trace terms, in
    search order, from the representatives' terms of all groups
    concatenated and flattened; ``seg`` and ``starts`` are the segments
    of the weight search over them, one per (batch entry, partition
    block).  ``scatter`` is ``pieces.flat(n_entries)``: per piece group,
    where the gains and bounds go in the zero-filled stacks.
    """

    fused: list
    gather: list
    term: np.ndarray
    seg: np.ndarray
    starts: np.ndarray
    scatter: list

    @classmethod
    def identity(cls, pieces: _Pieces, n_entries: int) -> "_Fold":
        """Every (batch entry, piece) its own class."""
        terms, fused = [], []
        for _, _, part in pieces.groups:
            every = np.arange(n_entries * part.size)
            entry, piece = np.divmod(every, part.size)
            terms.append((entry, piece, every))
            fused.append((every, entry * pieces.starts.size + part[piece], every))
        return cls(fused, *_plan(pieces, terms, n_entries))

    @classmethod
    def of(cls, pieces: _Pieces, a, b) -> tuple["_Fold", list[np.ndarray]]:
        """The fold of a batch whose blocks have classes ``a`` and ``b``, and its bounds' classes.

        ``a`` and ``b`` hold per stack group an (entries, k) array: blocks
        of one class are equal, on either side.  An input pair's class is
        its two blocks' classes and the piece's positions in them.  A
        weight's is the sequence of input pair classes of its partition
        block's pieces, which fixes its search; an intersection's is its
        input pair's and its weight's.  A bound block's class, returned per
        stack group as an (entries, k) array, is its pieces'
        intersection classes.  Order matters: (a, b) and (b, a) differ.
        """
        n_entries = a[0].shape[0]
        terms, pair_ids, first = [], [], 0
        for (g, _, _), (blk, _), pos_id in zip(pieces.groups, pieces.places, pieces.pos_ids):
            keys = np.stack(np.broadcast_arrays(pos_id, a[g][:, blk], b[g][:, blk]), axis=-1)
            inverse, reps = _classes(keys.reshape(-1, 3))
            terms.append((*np.divmod(reps, blk.size), inverse))
            pair_ids.append(first + inverse.reshape(n_entries, -1))
            first += reps.size
        weight, _ = _classes(_pick(np.concatenate(pair_ids, axis=1), pieces.by_part))
        weight = weight.reshape(n_entries, -1)
        fused, fused_ids, first = [], [], 0
        for (_, _, part), (_, _, pair) in zip(pieces.groups, terms):
            keys = np.stack([pair.reshape(n_entries, -1), weight[:, part]], axis=-1)
            inverse, reps = _classes(keys.reshape(-1, 2))
            entry, piece = np.divmod(reps, part.size)
            fused.append((pair[reps], entry * pieces.starts.size + part[piece], inverse))
            fused_ids.append(first + inverse.reshape(n_entries, -1))
            first += reps.size
        fused_ids = np.concatenate(fused_ids, axis=1)
        out = [_classes(_pick(fused_ids, blocks))[0].reshape(n_entries, -1)
               for blocks in pieces.by_block]
        return cls(fused, *_plan(pieces, terms, n_entries)), out


def _plan(pieces: _Pieces, terms: list, n_entries: int) -> tuple:
    """(gather, term, seg, starts, scatter) of a fold whose (entry, piece, inverse) are ``terms``."""
    gather, term, first = [], [], 0
    scatter = pieces.flat(n_entries)
    for (g, _, _), (_, pos), (entry, piece, inverse), every in zip(
            pieces.groups, pieces.places, terms, scatter):
        u, m = pos.shape
        if every is None:
            n = pieces.shapes[g][1]
            gather.append(((-1, n, n), entry * pieces.shapes[g][0] + piece))
        else:
            gather.append(((-1,), every[entry * u + piece]))
        term.append((first + inverse[:, None] * m + np.arange(m)).reshape(n_entries, -1))
        first += entry.size * m
    entries = np.arange(n_entries)[:, None]
    return (gather, np.concatenate(term, axis=1)[:, pieces.order].ravel(),
            (entries * pieces.starts.size + pieces.seg).ravel(),
            (entries * pieces.seg.size + pieces.starts).ravel(), scatter)


def _pick(ids: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(entries, rows * c) keys: per entry, ``ids`` at each row of a -1 padded (rows, c) index."""
    padded = np.concatenate([ids, np.full((ids.shape[0], 1), -1, dtype=ids.dtype)], axis=1)
    return padded[:, index].reshape(-1, index.shape[1])


def _off_mass(p, off) -> np.ndarray:
    """Relative Frobenius mass of the entries ``off`` lists, per batch entry of stacks ``p``."""
    flat = [s.reshape(s.shape[:-3] + (-1,)) for s in p]
    part = sum(np.sum(x[..., ix] ** 2, axis=-1) for x, ix in zip(flat, off))
    whole = sum(np.sum(x ** 2, axis=-1) for x in flat)
    return np.sqrt(part) / np.maximum(np.sqrt(whole), 1e-300)


def _nmci(lanes: list) -> list[tuple]:
    """Block-wise intersection of SPD stacked covariances over partitions of their states.

    Each lane is (p_a, p_b, pieces, fold): ``p_a`` and ``p_b`` are
    sequences of (..., k, n, n) stacks of the layout ``pieces`` was built
    on, all sharing one leading batch shape, and each batch entry is one
    intersection.  Returns per lane (per-block weights, gain of a, bound):
    the weights (..., blocks), the gain and bound as stacks.  Only the
    entries inside the pieces are read: those ``pieces.off`` lists are
    neither checked nor fused, and are zero in the gain and bound.
    ``fold`` (``_Fold``) names the (batch entry, piece) pairs that are
    equal, None for every pair its own: trace terms, gains and bounds are
    computed once per class, in one batched call per piece group, and
    gathered to every pair of the class, through the fold's plan.  One
    search over every lane's gathered terms finds every weight: each
    batch entry's partition blocks are segments of their own, searched as
    an unbatched call searches them.
    """
    runs, a, b, seg, starts = [], [], [], [], []
    n_segs = n_terms = 0
    for p_a, p_b, pieces, fold in lanes:
        batch = p_a[0].shape[:-3]
        fold = fold or _Fold.identity(pieces, int(np.prod(batch)))
        subs, term_a, term_b = [], [], []
        for (g, _, _), (shape, index) in zip(pieces.groups, fold.gather):
            sa, sb = (np.take(p[g].reshape(shape), index, axis=0) for p in (p_a, p_b))
            subs.append((sa, sb))
            ta, tb = _trace_terms(sa, sb)
            term_a.append(ta.ravel())
            term_b.append(tb.ravel())
        a.append(np.concatenate(term_a)[fold.term])
        b.append(np.concatenate(term_b)[fold.term])
        seg.append(fold.seg + n_segs)
        starts.append(fold.starts + n_terms)
        runs.append((p_a, pieces, fold, batch, subs, n_segs))
        n_segs, n_terms = n_segs + fold.starts.size, n_terms + fold.term.size
    omegas = np.array(_weights(*(np.concatenate(x) for x in (a, b, seg, starts))))
    out = []
    for p_a, pieces, fold, batch, subs, first in runs:
        weights = omegas[first:first + fold.starts.size]
        gain_a, bound = [None] * len(p_a), [None] * len(p_a)
        for (g, _, _), (sa, sb), (pair, weight, inverse), scatter in zip(
                pieces.groups, subs, fold.fused, fold.scatter):
            gain, fused = _ci(sa[pair], sb[pair], weights[weight])
            # a gather keeps each gain's memory layout, so the roundoff, of products
            gain, fused = (x[inverse] for x in (gain, fused))
            if scatter is None:
                gain_a[g], bound[g] = (x.reshape(batch + (-1,) + x.shape[-2:])
                                       for x in (gain, fused))
                continue
            if gain_a[g] is None:
                gain_a[g], bound[g] = np.zeros(p_a[g].shape), np.zeros(p_a[g].shape)
            gain_a[g].reshape(-1)[scatter] = gain
            bound[g].reshape(-1)[scatter] = fused
        out.append((weights.reshape(batch + (pieces.starts.size,)), gain_a, bound))
    return out


def _fused_mean(gain_a: np.ndarray, mean_a: np.ndarray, mean_b: np.ndarray) -> np.ndarray:
    """b's mean moved toward a's by gain_a, for (..., n) means and (..., n, n) gains.

    The gains' leading axes broadcast against the means': a (k, n, n)
    stack moves (runs, k, n) means, an (edges, k, n, n) one (runs, edges,
    k, n) means.  Rows where b gets no weight (gain_a's row is the
    identity's) keep a's mean as it is, so a weight of 1 returns a's mean
    exactly.
    """
    fused = mean_b + (gain_a @ (mean_a - mean_b)[..., None])[..., 0]
    kept = np.all(gain_a == np.eye(gain_a.shape[-1]), axis=-1)
    return np.where(kept, mean_a, fused)


def optimize_ci_omega(p_a: np.ndarray, p_b: np.ndarray) -> float:
    """Weight minimizing the trace of the intersected covariance.

    ``p_a`` and ``p_b`` are covariance matrices; both must be SPD.  Two
    Cholesky factors and one SVD diagonalize both inputs at once, which
    turns the objective f(w) = trace((w*P_a^-1 + (1-w)*P_b^-1)^-1) into a
    scalar sum (Niehsen, FUSION 2002; Reinhardt, Noack & Hanebeck, FUSION
    2012).  f is convex on [0, 1], so its minimum is an endpoint where f'
    does not change sign, else the root of f', found by Newton steps
    safeguarded by bisection.  A minimum whose objective is within 1e-12
    relative of f(0.5) is a tie (e.g. P_a == P_b) and resolves to 0.5;
    minima within ``OMEGA_TOL`` of an endpoint, or whose objective is
    within that slack of the endpoint's, snap onto it.  The search runs
    in the terms' own units, so scaling both inputs by any factor
    ``check_spd`` accepts gives the same weight (bitwise, for a power of
    two).
    """
    a, b = _trace_terms(check_spd(p_a, name="P_a"), check_spd(p_b, name="P_b"))
    return _weights(a, b, np.zeros(a.size, dtype=np.intp), np.zeros(1, dtype=np.intp))[0]


def ci_fuse(a: GaussianEstimate, b: GaussianEstimate,
            omega: float | None = None) -> FusionResult:
    """Covariance intersection of two same-state estimates.

    With weight w the fused information is w*P_a^-1 + (1-w)*P_b^-1, which
    is conservative for every admissible correlation between the inputs.
    ``omega=None`` picks the trace-optimal weight.  At w = 0 (or 1) the
    result is exactly estimate b (or a); no solve is attempted there.
    """
    _check_same_labels(a, b)
    if omega is None:
        w = _weights(*_trace_terms(a.covariance, b.covariance),
                     np.zeros(a.dim, dtype=np.intp), np.zeros(1, dtype=np.intp))[0]
        source = "optimized"
    else:
        w, source = float(omega), "given"
        if not (0.0 <= w <= 1.0):
            raise DimensionError(f"omega must lie in [0, 1], got {w}")
    ga, bound = _ci(a.covariance, b.covariance, w)
    return FusionResult(
        gain_a=ga, gain_b=np.eye(a.dim) - ga, fused_mean=_fused_mean(ga, a.mean, b.mean),
        bound=bound, method=FusionMethod.CI, omega=np.array([w]),
        diagnostics={"omega_source": source, "trace": float(np.trace(bound))})


def nmci_fuse(a: GaussianEstimate, b: GaussianEstimate,
              partition: BlockPartition) -> FusionResult:
    """Block-wise covariance intersection with an independent weight per block.

    Valid when each input covariance is block-diagonal over ``partition``
    and the unknown cross-correlation cannot couple different blocks; the
    result then never has a larger trace than monolithic intersection.
    A covariance with off-block mass above ``OFF_BLOCK_TOL`` (relative
    Frobenius) is an error, checked for A before B.
    """
    _check_same_labels(a, b)
    if partition.dim != a.dim:
        raise DimensionError(
            f"partition covers {partition.dim} states but estimates have {a.dim}")
    pieces = _Pieces(StackLayout([range(a.dim)]), partition)
    for side, x in zip("AB", (a, b)):
        mass = float(_off_mass((_unit_scaled(x.covariance)[None],), pieces.off))
        if mass > OFF_BLOCK_TOL:
            raise DimensionError(
                f"covariance {side} couples different partition blocks (relative off-block mass "
                f"{mass:.2e} > {OFF_BLOCK_TOL:g}); fuse it with CI, or with a partition that "
                f"keeps the coupling inside one block")
    ((omegas, (ga,), (bound,)),) = _nmci([((a.covariance[None],), (b.covariance[None],), pieces,
                                           None)])
    ga, bound = ga[0], bound[0]
    return FusionResult(
        gain_a=ga, gain_b=np.eye(a.dim) - ga, fused_mean=_fused_mean(ga, a.mean, b.mean),
        bound=bound, method=FusionMethod.NMCI, omega=omegas,
        diagnostics={"trace": float(np.trace(bound))})


def exact_fuse(a: GaussianEstimate, b: GaussianEstimate, p_ab: np.ndarray) -> FusionResult:
    """Minimum-variance fusion when the cross-covariance is known.

    Gains follow from minimizing the fused covariance subject to the
    gains summing to identity; the innovation-like term
    S = P_a + P_b - P_ab - P_ab^T is inverted by pseudo-inverse so that
    degenerate joints (e.g. two copies of the same estimate) still fuse.
    The joint covariance must be positive semidefinite within 1e-9 relative.
    A joint whose largest entry lies above 2^1000 is fused in units of 2^e
    that bring it below, so that no sum overflows; the gains do not depend
    on the units, and the bound is scaled back.
    """
    _check_same_labels(a, b)
    p_a, p_b = a.covariance, b.covariance
    joint = JointCovariance(p_a, p_b, p_ab)
    p_ab = joint.p_ab
    g = joint.assembled()
    # a power of two scales exactly; inputs below 2^1000 are not scaled
    e = max(math.frexp(float(np.abs(g).max()))[1] - 1000, 0)
    if e:
        p_a, p_b, p_ab = (np.ldexp(m, -e) for m in (p_a, p_b, p_ab))
        joint = JointCovariance(p_a, p_b, p_ab)
        g = joint.assembled()
    scale = max(float(np.linalg.norm(g, 2)), 1e-300)
    if min_eigenvalue(g) < -1e-9 * scale:
        raise NotPositiveDefiniteError(
            "joint covariance is indefinite; the stated cross-covariance "
            "is inconsistent with the marginals")
    s = symmetrize(p_a + p_b - p_ab - p_ab.T)
    ga = (p_b - p_ab.T) @ np.linalg.pinv(s, hermitian=True)
    gb = np.eye(a.dim) - ga
    bound = np.ldexp(realized_cov(ga, gb, joint), e)
    mean = ga @ a.mean + gb @ b.mean
    return FusionResult(
        gain_a=ga, gain_b=gb, fused_mean=mean, bound=bound,
        method=FusionMethod.EXACT, omega=None,
        diagnostics={"innovation_rank": int(np.linalg.matrix_rank(s, tol=1e-10 * scale)),
                     "trace": float(np.trace(bound))})


def realized_cov(gain_a: np.ndarray, gain_b: np.ndarray,
                 joint: JointCovariance) -> np.ndarray:
    """Covariance actually achieved by linear gains under a given joint.

    Returns [K_a K_b] J [K_a K_b]^T, symmetrized.  This is what the fused
    error covariance really is when the joint covariance happens to be J,
    regardless of which bound the gains were designed against.
    """
    ga = np.asarray(gain_a, dtype=float)
    gb = np.asarray(gain_b, dtype=float)
    if ga.ndim != 2 or gb.ndim != 2 or ga.shape[0] != gb.shape[0]:
        raise DimensionError("gains must be matrices with equal row counts")
    if ga.shape[1] != joint.dim_a or gb.shape[1] != joint.dim_b:
        raise DimensionError("gain columns do not match the joint covariance blocks")
    k = np.hstack([ga, gb])
    return symmetrize(k @ joint.assembled() @ k.T)
