"""Rejection sampler over admissible cross-covariances.

Draws the free entries of the cross-correlation uniformly from [-1, 1],
keeps the draw when the assembled joint correlation matrix is positive
definite, and rescales by the marginal standard deviations.  Entries the
sparsity pattern marks as zero are never drawn, so they are exactly zero
in every sample.

Proposals are drawn and tested in batches: one ``uniform`` call fills k
proposals at once and ``_accept`` decides them all.  A batch that accepts
nothing doubles the next; after one that accepts some, the next holds
the proposals the samples still needed take at the stream's acceptance
rate so far (never fewer than before, at most _MAX_BATCH).  A proposal is
accepted when ``eigvalsh`` puts the joint's smallest eigenvalue above
``PD_MARGIN``.  ``_accept`` settles nearly every proposal without an
eigensolve: one LDL^T elimination, with the batch on the last axis,
factors M - c I at the two shifts c = PD_MARGIN +- _BAND.  All pivots
positive at the upper shift proves the smallest eigenvalue above
PD_MARGIN; a nonpositive pivot at the lower shift proves it below (by
interlacing, a leading block that is not positive definite bounds it).
The joints are correlation matrices, so their norm is at most their
order, and the rounding of both the elimination and ``eigvalsh`` stays
near 1e-14, far inside _BAND.  Only the proposals between the shifts
go to ``eigvalsh``, and it runs the same LAPACK routine on each matrix
as a one-at-a-time loop would.  Batches too small for the elimination
to pay off go to ``eigvalsh`` whole.

The generator yields the same doubles in the same order whatever the
batch size, so every proposal and every accept/reject decision is the
one a loop of one proposal and one ``eigvalsh`` at a time would make.
A sample set takes every accepted proposal of a batch at once, and
proposals left over after one sample serve the next; a sample's attempt
count starts at the proposal after the previous sample's.  Samples,
attempt counts and the point at which ``max_attempts`` gives up are
therefore those of that loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CrossSparsityPattern,
    DimensionError,
    SamplingError,
    as_seed,
    cov_to_corr,
)

DEFAULT_MAX_ATTEMPTS = 1_000_000
# a proposal is accepted when the joint correlation's smallest eigenvalue
# clears this margin, keeping later Cholesky factorizations safe
PD_MARGIN = 1e-9
# a stream's first batch holds _FIRST_BATCH proposals, and no batch more
# than _MAX_BATCH (module docstring).  With every entry free at d = 4 (about
# 2,700 proposals per sample), a cap of 4096 raised peak memory by 4 MB
# against 0.8 MB at 512, and ran no faster
_FIRST_BATCH = 16
_MAX_BATCH = 512
# half-width of the band around PD_MARGIN that _accept leaves to eigvalsh
_BAND = 1e-10
_SHIFTS = np.array([[PD_MARGIN + _BAND], [PD_MARGIN - _BAND]])
# smaller batches go straight to eigvalsh: the elimination's few dozen
# numpy calls cost more than that many small eigensolves
_MIN_ELIMINATION_BATCH = 32


@dataclass(frozen=True)
class UncertaintySample:
    """One admissible cross-covariance and the attempts it cost to draw.

    A sample a caller builds holds a read-only copy of ``p_ab``.
    """

    p_ab: np.ndarray
    attempts: int

    def __post_init__(self):
        p = np.array(self.p_ab, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "p_ab", p)
        if self.attempts < 1:
            raise DimensionError("attempts must be at least 1")


def _held(stack: np.ndarray, counts) -> list[UncertaintySample]:
    """Samples holding read-only views of the sampler's own (n, d_a, d_b)
    ``stack`` and their attempt counts, which are at least 1: built without
    ``__post_init__``'s copy and check."""
    stack.flags.writeable = False
    samples = [object.__new__(UncertaintySample) for _ in counts]
    for sample, p_ab, attempts in zip(samples, stack, counts):
        sample.__dict__.update(p_ab=p_ab, attempts=attempts)
    return samples


def _accept(stack: np.ndarray) -> np.ndarray:
    """``eigvalsh(stack)[:, 0] > PD_MARGIN`` for a (k, m, m) stack of joints.

    Factors M - c I at both shifts without pivoting, all 2k matrices at
    once with the batch on the last axis, and reads the decision off the
    pivots; see the module docstring.  The copy into that layout is
    contiguous when ``stack`` is a view of a batch-last array.
    """
    k, m, _ = stack.shape
    if k < _MIN_ELIMINATION_BATCH:
        return np.linalg.eigvalsh(stack)[:, 0] > PD_MARGIN
    a = np.empty((m, m, 2, k))
    a[...] = stack.transpose(1, 2, 0)[:, :, None]
    piv = a.reshape(m * m, 2, k)[::m + 1]     # the diagonal, a view
    piv -= _SHIFTS
    a = a.reshape(m, m, 2 * k)
    # the lower triangle, one row at a time: updating whole trailing blocks
    # at once made temporaries large enough (200 KB at k = 512, m = 6) to
    # cost fresh page faults on every call, and ran up to twice as slow.
    # A pivot that is not positive spoils the steps after it with inf or
    # nan, but only in matrices whose decision it has already settled
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(m - 1):
            ratio = a[j + 1:, j] / a[j, j]
            for i in range(j + 1, m):
                row = a[i, j + 1:i + 1]
                row -= ratio[i - j - 1] * a[j + 1:i + 1, j]
    # an overflowed pivot proves nothing, so acceptance wants finite ones;
    # a nan pivot makes every later one nan, so any pivot <= 0 at the lower
    # shift follows positive ones only
    ok = ((piv[:, 0] > 0) & (piv[:, 0] < np.inf)).all(axis=0)
    # settled by neither test, or (never seen) by both
    band = np.flatnonzero(ok == (piv[:, 1] <= 0).any(axis=0))
    if band.size:
        ok[band] = np.linalg.eigvalsh(stack[band])[:, 0] > PD_MARGIN
    return ok


class _ProposalStream:
    """Admissible cross-covariances from one seeded stream of proposals."""

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

    def _refill(self, left: int, budget: int) -> None:
        """A fresh batch for ``left`` more samples, of at most ``budget`` proposals."""
        if self._ok.any():
            want = -(-left * self._seen // self._accepted)     # rounded up
            self._batch = min(max(self._batch, want), _MAX_BATCH)
        elif self._ok.size:
            self._batch = min(2 * self._batch, _MAX_BATCH)
        k = min(self._batch, budget)
        props = self._rng.uniform(-1.0, 1.0, size=(k, self._rows.size))
        # built batch-last, the layout _accept eliminates in; it and
        # eigvalsh read the (k, m, m) view
        stack = np.empty(self._joint.shape + (k,))
        stack[...] = self._joint[:, :, None]
        da = self._scale.shape[0]
        stack[self._rows, da + self._cols] = props.T
        stack[da + self._cols, self._rows] = props.T
        self._props = props
        self._ok = _accept(stack.transpose(2, 0, 1))
        self._next = 0
        self._seen += k
        self._accepted += int(np.count_nonzero(self._ok))

    def draw(self, n: int, max_attempts: int) -> list[UncertaintySample]:
        """The stream's next n samples, each within ``max_attempts`` attempts.

        Every accepted proposal a batch holds is taken at once; a sample's
        attempt count is the distance from the proposal after the previous
        sample, which may sit in an earlier batch.  The samples hold
        read-only views of one (n, d_a, d_b) stack.
        """
        if not self._rows.size:
            # nothing to draw; the block-diagonal joint is PD by construction
            return _held(np.zeros((n,) + self._scale.shape), [1] * n)
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
        return _held(c_ab, counts)


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
