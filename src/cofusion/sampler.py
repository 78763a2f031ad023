"""Rejection sampler over admissible cross-covariances.

Draws the free entries of the cross-correlation uniformly from [-1, 1],
keeps the draw when the assembled joint correlation matrix is positive
definite, and rescales by the marginal standard deviations.  Entries the
sparsity pattern marks as zero are never drawn, so they are exactly zero
in every sample.

Proposals come in batches, one ``uniform`` call each.  A batch that
accepts nothing doubles the next; after one that accepts some, the next
holds what the samples still needed take at the stream's acceptance rate
so far (never fewer than before, at most _MAX_BATCH).  A proposal is
accepted when ``eigvalsh`` puts the joint's smallest eigenvalue above
PD_MARGIN.  For M = [[F, C], [C^T, G]], F the marginal correlation a
stream fixes, M - c I is positive definite exactly when F - c I and
S_c = (G - c I) - W_c^T W_c are, W_c = L_c^-1 C for L_c the Cholesky
factor of F - c I.  A stream factors F once, at c = PD_MARGIN +- _BAND.
A column of W (one matmul at the lower shift) whose squared norm reaches
G_jj - c gives S_c a nonpositive diagonal entry and rejects; the rest
are factored as LDL^T at both shifts by ``core.ldl_pivots``, the kernel
that also tests the SDP's joints and slacks.  All pivots positive at the
upper shift proves the smallest eigenvalue above PD_MARGIN, a nonpositive
one at the lower shift proves it below (interlacing).  Only proposals between
the shifts (every one not rejected, if F does not factor at the upper
shift) go to ``eigvalsh``, which runs the same LAPACK routine on each
joint as a one-at-a-time loop would.  A marginal that does not factor at
the lower shift bounds every joint below PD_MARGIN (interlacing), so the
stream raises ``SamplingError`` before any proposal.  Rounding: Cholesky
without pivoting is backward stable on positive definite matrices, and
on correlation joints it and ``eigvalsh`` round near 1e-14, far inside
_BAND.  W's rounding grows with |L_c^-1|, and so does S_c (S_c^-1 is a
block of (M - c I)^-1); the tests match ``eigvalsh`` at condition up to
1e9 and within 1e-12 of PD_MARGIN.

The generator yields the same doubles in the same order whatever the
batch size, so every proposal and decision is the one a loop of one
proposal and one ``eigvalsh`` at a time would make.  A sample set takes
every accepted proposal of a batch at once and leaves the rest to the
next samples, counting a sample's attempts from the proposal after the
previous sample's: samples, attempt counts and where ``max_attempts``
gives up are that loop's.  A draw returns its samples as
``UncertaintySample`` tuples of a read-only view of one (n, d_a, d_b)
stack and an attempt count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    CrossSparsityPattern,
    DimensionError,
    SamplingError,
    as_seed,
    cov_to_corr,
    ldl_pivots,
)

DEFAULT_MAX_ATTEMPTS = 1_000_000
# a proposal is accepted when the joint correlation's smallest eigenvalue
# clears this margin, keeping later Cholesky factorizations safe
PD_MARGIN = 1e-9
# a stream's first batch holds _FIRST_BATCH proposals, and no batch more
# than _MAX_BATCH: three draws on fully free pairs of condition 9 took 53-75
# ms at 512 and 28-34 ms at 4096 at d = 3, 93-148 and 60-85 ms at d = 4 (2
# CPUs, one BLAS thread), for 0.75 MB more peak memory at most (0.25 at 512)
_FIRST_BATCH = 16
_MAX_BATCH = 4096
# half-width of the band around PD_MARGIN whose proposals go to eigvalsh
_BAND = 1e-10
_SHIFTS = np.array([PD_MARGIN + _BAND, PD_MARGIN - _BAND])


class UncertaintySample(NamedTuple):
    """One admissible cross-covariance and the attempts it cost to draw."""

    p_ab: np.ndarray
    attempts: int


class _ProposalStream:
    """Admissible cross-covariances from one seeded stream of proposals.

    F is the larger marginal, so the screen's columns span more of each
    proposal and the complement is smaller: at (d_a, d_b) = (1, 4), a batch
    of 4,096 took 0.15 ms with the 4-d block fixed and 2.3 ms otherwise."""

    def __init__(self, p_a, p_b, pattern: CrossSparsityPattern, seed: int):
        as_seed(seed)     # PCG64 would raise a bare ValueError
        corr_a, std_a = cov_to_corr(p_a)
        corr_b, std_b = cov_to_corr(p_b)
        if (pattern.dim_a, pattern.dim_b) != (corr_a.shape[0], corr_b.shape[0]):
            raise DimensionError(
                f"pattern is {pattern.dim_a}x{pattern.dim_b} but covariances are "
                f"{corr_a.shape[0]} and {corr_b.shape[0]} dimensional")
        da, db = pattern.dim_a, pattern.dim_b
        self._joint = np.zeros((da + db, da + db))
        self._joint[:da, :da] = corr_a
        self._joint[da:, da:] = corr_b
        free = pattern.free_indices()
        self._rows = np.array([i for i, _ in free], dtype=int)
        self._cols = np.array([j for _, j in free], dtype=int)
        self._scale = np.outer(std_a, std_b)
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._batch = _FIRST_BATCH
        self._props = np.empty((0, len(free)))   # pending proposals
        self._ok = np.empty(0, dtype=bool)       # their accept decisions
        self._next = 0                           # first unused proposal
        self._seen = self._accepted = 0          # proposals decided, and accepted
        if not free:
            return
        for name, corr in (("p_a", corr_a), ("p_b", corr_b)):
            try:
                np.linalg.cholesky(corr - _SHIFTS[1] * np.eye(len(corr)))
            except np.linalg.LinAlgError:
                raise SamplingError(
                    f"the correlation of {name} has an eigenvalue below PD_MARGIN "
                    f"= {PD_MARGIN:g}, so no cross-covariance is admissible") from None
        f, g, fi, gi = ((corr_b, corr_a, self._cols, self._rows) if db > da
                        else (corr_a, corr_b, self._rows, self._cols))
        p, q, n = len(f), len(g), len(free)
        # free entry e puts column fi[e] of L_c^-1 in column gi[e] of W_c
        maps = np.zeros((2, p, q, n))
        for s, shift in enumerate(_SHIFTS):
            try:
                low = np.linalg.cholesky(f - shift * np.eye(p))
            except np.linalg.LinAlgError:     # upper shift: no pivot will be > 0
                maps[s] = np.nan
                continue
            inv = np.eye(p)
            for i in range(p):     # forward substitution of the unit columns
                inv[i] -= low[i, :i] @ inv[:i]
                inv[i] /= low[i, i]
            maps[s][:, gi, np.arange(n)] = inv[:, fi]
        self._pq = p, q
        self._maps = maps.reshape(2, p * q, n)
        self._complement = (g[:, :, None] - np.eye(q)[:, :, None] * _SHIFTS)[..., None]
        self._screen = np.diag(g)[:, None] - _SHIFTS[1]

    def _decide(self, props: np.ndarray) -> np.ndarray:
        """``eigvalsh(joint)[0] > PD_MARGIN`` for each of the (k, n_free)
        ``props``, decided on S_c batch last (module docstring)."""
        p, q = self._pq
        k = len(props)
        low = (self._maps[1] @ props.T).reshape(p, q, k)
        live = np.flatnonzero((np.einsum("rjk,rjk->jk", low, low) < self._screen).all(axis=0))
        w = np.empty((p, q, 2, live.size))
        w[:, :, 0] = (self._maps[0] @ props[live].T).reshape(p, q, -1)
        w[:, :, 1] = low[:, :, live]
        piv = ldl_pivots(self._complement - np.einsum("ri...,rj...->ij...", w, w))
        ok = np.zeros(k, dtype=bool)
        # an overflowed pivot proves nothing; after a nan all pivots are nan
        ok[live] = ((piv[:, 0] > 0) & (piv[:, 0] < np.inf)).all(axis=0)
        # settled by neither test, or (never seen) by both
        band = live[ok[live] == (piv[:, 1] <= 0).any(axis=0)]
        if band.size:
            rows, cols = self._rows, self._cols + len(self._scale)
            joints = np.repeat(self._joint[None], band.size, axis=0)
            joints[:, rows, cols] = joints[:, cols, rows] = props[band]
            ok[band] = np.linalg.eigvalsh(joints)[:, 0] > PD_MARGIN
        return ok

    def _refill(self, left: int, budget: int) -> None:
        """A fresh batch for ``left`` more samples, of at most ``budget`` proposals."""
        if self._ok.any():
            want = -(-left * self._seen // self._accepted)     # rounded up
            self._batch = min(max(self._batch, want), _MAX_BATCH)
        elif self._ok.size:
            self._batch = min(2 * self._batch, _MAX_BATCH)
        k = min(self._batch, budget)
        self._props = self._rng.uniform(-1.0, 1.0, size=(k, self._rows.size))
        self._ok = self._decide(self._props)
        self._next = 0
        self._seen += k
        self._accepted += int(np.count_nonzero(self._ok))

    def draw(self, n: int, max_attempts: int) -> list[UncertaintySample]:
        """The stream's next n samples, each within ``max_attempts`` attempts,
        as read-only views of one (n, d_a, d_b) stack (module docstring)."""
        if not self._rows.size:
            # nothing to draw; the block-diagonal joint is PD by construction
            zeros = np.zeros((n,) + self._scale.shape)
            zeros.flags.writeable = False
            return list(map(UncertaintySample, zeros, [1] * n))
        picks, counts = [], []
        left = n
        attempts = 0     # spent on the sample being drawn
        while left:
            if self._next == self._ok.size:
                if attempts >= max_attempts:
                    raise SamplingError(
                        f"no admissible cross-covariance found in {max_attempts} "
                        "attempts; the marginals may be near-singular or the "
                        "pattern leaves too many free entries for this dimension")
                self._refill(left, max_attempts - attempts)
            # no batch outgrows the budget left when it was drawn, so the
            # proposals a sample finds buffered never outrun its own budget
            hits = np.flatnonzero(self._ok[self._next:])[:left] + self._next
            if hits.size:
                gaps = np.diff(hits, prepend=self._next - 1)
                gaps[0] += attempts
                picks.append(self._props[hits])
                counts.extend(gaps.tolist())
                left -= hits.size
                attempts = 0
                self._next = int(hits[-1]) + 1
            if left:
                attempts += self._ok.size - self._next
                self._next = self._ok.size
        c_ab = np.zeros((n,) + self._scale.shape)
        c_ab[:, self._rows, self._cols] = np.concatenate(picks)
        c_ab *= self._scale
        c_ab.flags.writeable = False
        return list(map(UncertaintySample, c_ab, counts))


def sample_cross(p_a: np.ndarray, p_b: np.ndarray, pattern: CrossSparsityPattern,
                 seed: int, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> UncertaintySample:
    """Draw one admissible cross-covariance for the given marginals.

    Identical (p_a, p_b, pattern, seed) always reproduce the same sample,
    on any platform.
    """
    return _ProposalStream(p_a, p_b, pattern, seed).draw(1, max_attempts)[0]


def sample_set(p_a: np.ndarray, p_b: np.ndarray, pattern: CrossSparsityPattern,
               n: int, seed: int, *,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> list[UncertaintySample]:
    """Draw n admissible cross-covariances from one seeded stream.

    The stream is consumed sequentially, so for a fixed seed the first k
    samples of sample_set(..., n) and sample_set(..., k) coincide; nested
    sample sets are therefore prefixes of each other.
    """
    if n < 1:
        raise DimensionError("n must be at least 1")
    return _ProposalStream(p_a, p_b, pattern, seed).draw(n, max_attempts)
