"""Shared types for fusing Gaussian estimates under unknown correlation.

Defines labeled Gaussian estimates, state-index partitions, sparsity
patterns for the unknown cross-covariance, assembled joint covariances,
and the fusion-result record that every fusion rule returns.  All
covariance handling goes through the symmetry and definiteness checks
here so the rest of the package can assume clean inputs.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# Shared tolerances: symmetry is relative Frobenius asymmetry, definiteness
# is the smallest eigenvalue relative to the largest.
SYMMETRY_RTOL = 1e-9
PD_RTOL = 1e-12
GAIN_SUM_ATOL = 1e-9


class FusionError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionError(FusionError, ValueError):
    """Operands have incompatible shapes, labels, or index sets."""


class NotSymmetricError(FusionError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(FusionError, ValueError):
    """A matrix required to be positive (semi)definite is not."""


class ConfigError(FusionError, ValueError):
    """A configuration mapping or file is malformed."""


class SamplingError(FusionError, RuntimeError):
    """The rejection sampler exhausted its attempt budget, or no draw can be admissible."""


class SolverError(FusionError, RuntimeError):
    """The semidefinite solver could not produce a usable iterate."""


@contextmanager
def parsing(what: str):
    """Raise a KeyError, TypeError or ValueError from reading ``what`` as ConfigError.

    The package's own errors pass through as they are.
    """
    try:
        yield
    except FusionError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def as_int(value, name: str) -> int:
    """``value`` as an int, or ConfigError if it is not an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a finite float, or ConfigError if it is not a finite real (a bool is not)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:       # an int beyond the float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def as_name(value, name: str = "name") -> str:
    """``value`` as a run name, or ConfigError.

    Output directories are named after it, so it must be a non-empty
    string that names one directory entry: no ``/`` or ``\\``, and not
    ``.`` or ``..``.
    """
    if (not isinstance(value, str) or not value or "/" in value or "\\" in value
            or value in (".", "..")):
        raise ConfigError(f"{name} must be a non-empty string without '/' or '\\' "
                          f"and not '.' or '..', got {value!r}")
    return value


def as_seed(value, name: str = "seed") -> int:
    """``value`` as an int in [0, 2**64), or ConfigError.

    Substream seeds take the master seed modulo 2**64, so any other seed
    would silently run the streams of another one: -1 those of
    2**64 - 1, and 2**64 those of 0.
    """
    seed = as_int(value, name)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return seed


# ---------------------------------------------------------------------------
# matrix checks

def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2, of each matrix of a (..., n, n) stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def check_symmetric(m, *, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and return the symmetrized float copy."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSymmetricError(f"{name} contains non-finite entries")
    scale = max(float(np.linalg.norm(m)), 1e-300)
    if float(np.linalg.norm(m - m.T)) > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(f"{name} is not symmetric within rtol={SYMMETRY_RTOL:g}")
    return symmetrize(m)


def check_spd(m, *, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; returns the symmetrized copy."""
    m = check_symmetric(m, name=name)
    check_spd_stacks((m,), name=name)
    return m


def check_spd_stacks(stacks, *, name: str = "matrix", members=None) -> None:
    """``check_spd``'s definiteness test on block-diagonal matrices stored as stacks.

    Each stack is a (..., n, n) array of diagonal blocks, one stack per
    block size; the matrices are indexed by the leading axes that every
    stack shares, and a trailing block axis (if any) runs over one
    matrix's blocks of that size.  A matrix's spectrum is the union of its
    blocks' spectra, so it fails when its smallest block eigenvalue is at
    most PD_RTOL times its largest, or its largest is not positive.  Stacks
    of one (n, n) block hold one matrix.  Non-finite entries fail too.
    ``members``, if given, holds per stack an (..., k) index into its
    (r, n, n) blocks: each matrix's k blocks of that size, so a block that
    several matrices share is decomposed once.
    """
    lo = hi = None
    for i, s in enumerate(stacks):
        if not np.all(np.isfinite(s)):
            raise NotSymmetricError(f"{name} contains non-finite entries")
        w = np.linalg.eigvalsh(s)
        s_lo, s_hi = w[..., 0], w[..., -1]
        if members is not None:
            s_lo, s_hi = s_lo[members[i]], s_hi[members[i]]
        if s.ndim > 2:
            s_lo, s_hi = s_lo.min(axis=-1), s_hi.max(axis=-1)
        lo = s_lo if lo is None else np.minimum(lo, s_lo)
        hi = s_hi if hi is None else np.maximum(hi, s_hi)
    bad = (lo <= PD_RTOL * np.maximum(hi, 0.0)) | (hi <= 0.0)
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (eig range [{lo[at]:.3e}, {hi[at]:.3e}])")


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of m."""
    return float(np.linalg.eigvalsh(symmetrize(m))[0])


def ldl_pivots(a: np.ndarray) -> np.ndarray:
    """Factor each matrix of the batch-last (m, m, ...) stack ``a`` in place as
    L D L^T (Cholesky without square roots or pivoting); returns the (m, ...)
    pivots D, a view of ``a``'s diagonal.

    Only the lower triangle is read, and below the diagonal it ends holding
    L_ij D_j.  Each step is one numpy call over the whole batch.  A matrix is
    positive definite exactly when its pivots are all positive; a pivot that
    is not spoils only the later steps of its own matrix, with inf or nan.
    """
    m = len(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(m - 1):
            ratio = a[j + 1:, j] / a[j, j]
            for i in range(j + 1, m):
                row = a[i, j + 1:i + 1]
                row -= ratio[i - j - 1] * a[j + 1:i + 1, j]
    return np.einsum("ii...->i...", a)


def is_conservative(bound: np.ndarray, actual: np.ndarray, tol: float = 1e-9) -> bool:
    """True when bound - actual is positive semidefinite within tol.

    Tolerance is absolute on the smallest eigenvalue of the difference,
    scaled by the spectral norm of the bound so the test behaves the same
    for covariances expressed in different units.
    """
    bound = check_symmetric(bound, name="bound")
    actual = check_symmetric(actual, name="actual")
    if bound.shape != actual.shape:
        raise DimensionError("bound and actual must have the same shape")
    scale = max(float(np.linalg.norm(bound, 2)), 1e-300)
    return min_eigenvalue(bound - actual) >= -tol * scale


def cov_to_corr(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an SPD covariance into (correlation matrix, std-dev vector)."""
    p = check_spd(p, name="covariance")
    s = np.sqrt(np.diag(p))
    corr = p / np.outer(s, s)
    np.fill_diagonal(corr, 1.0)
    return symmetrize(corr), s


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# estimates

@dataclass(frozen=True, eq=False)
class GaussianEstimate:
    """A labeled Gaussian belief: mean vector and SPD covariance.

    Labels name the state entries (e.g. "t0:px") so that estimates from
    different sources can only be combined once their orderings agree.
    """

    mean: np.ndarray
    covariance: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = check_spd(self.covariance, name="covariance")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionError(
                f"mean has {mean.shape[0]} entries but covariance is {cov.shape[0]}x{cov.shape[0]}")
        if not np.all(np.isfinite(mean)):
            raise DimensionError("mean contains non-finite entries")
        if isinstance(self.labels, str):
            raise DimensionError(f"labels must be a list of strings, got the string {self.labels!r}")
        labels = tuple(self.labels) if self.labels else tuple(f"x{i}" for i in range(mean.shape[0]))
        if not all(isinstance(lab, str) for lab in labels):
            raise DimensionError(f"labels must be strings, got {list(labels)!r}")
        if len(labels) != mean.shape[0]:
            raise DimensionError(f"{len(labels)} labels for a {mean.shape[0]}-dim estimate")
        if len(set(labels)) != len(labels):
            raise DimensionError("labels must be unique")
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "covariance", _as_readonly(cov))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def marginal(self, indices: Sequence[int]) -> "GaussianEstimate":
        """Sub-estimate over the given state indices, in the given order."""
        idx = list(indices)
        return GaussianEstimate(self.mean[idx], self.covariance[np.ix_(idx, idx)],
                                tuple(self.labels[i] for i in idx))

    def reindex(self, labels: Sequence[str]) -> "GaussianEstimate":
        """Reorder the state entries to match another estimate's labels."""
        want = tuple(labels)
        if set(want) != set(self.labels):
            raise DimensionError("reindex labels are not a permutation of this estimate's labels")
        pos = {lab: i for i, lab in enumerate(self.labels)}
        return self.marginal([pos[lab] for lab in want])

    def to_dict(self) -> dict:
        return {"labels": list(self.labels),
                "mean": self.mean.tolist(),
                "covariance": self.covariance.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianEstimate":
        with parsing("estimate mapping"):
            return cls(np.asarray(d["mean"], dtype=float),
                       np.asarray(d["covariance"], dtype=float),
                       d.get("labels", ()))

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "GaussianEstimate":
        d = read_json(path)
        if not isinstance(d, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# partitions and sparsity patterns

@dataclass(frozen=True)
class BlockPartition:
    """Disjoint index blocks covering 0..dim-1, in fusion order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(as_int(i, "partition index") for i in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise DimensionError("partition needs at least one non-empty block")
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(len(flat))):
            raise DimensionError("blocks must disjointly cover 0..dim-1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def to_dict(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockPartition":
        with parsing("partition mapping"):
            return cls(tuple(tuple(b) for b in d["blocks"]))


@dataclass(frozen=True)
class CrossSparsityPattern:
    """Known-zero entries of an unknown cross-covariance block.

    ``zero_indices`` holds (row, col) pairs of the cross block that are
    structurally zero; every other entry is free.  An empty set means the
    cross-covariance is completely unknown.
    """

    dim_a: int
    dim_b: int
    zero_indices: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "dim_a", as_int(self.dim_a, "dim_a"))
        object.__setattr__(self, "dim_b", as_int(self.dim_b, "dim_b"))
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError("pattern dimensions must be positive")
        zi = frozenset((as_int(i, "zero index"), as_int(j, "zero index"))
                       for i, j in self.zero_indices)
        for i, j in zi:
            if not (0 <= i < self.dim_a and 0 <= j < self.dim_b):
                raise DimensionError(f"zero index ({i}, {j}) outside {self.dim_a}x{self.dim_b}")
        object.__setattr__(self, "zero_indices", zi)

    def free_indices(self) -> list[tuple[int, int]]:
        """Free (row, col) pairs in row-major order."""
        return [(i, j) for i in range(self.dim_a) for j in range(self.dim_b)
                if (i, j) not in self.zero_indices]

    def zero_mask(self) -> np.ndarray:
        """Boolean dim_a x dim_b array, True where the entry must be zero."""
        m = np.zeros((self.dim_a, self.dim_b), dtype=bool)
        for i, j in self.zero_indices:
            m[i, j] = True
        return m

    @classmethod
    def unconstrained(cls, dim_a: int, dim_b: int) -> "CrossSparsityPattern":
        return cls(dim_a, dim_b)

    def to_dict(self) -> dict:
        return {"dim_a": self.dim_a, "dim_b": self.dim_b,
                "zero_indices": sorted([list(p) for p in self.zero_indices])}

    @classmethod
    def from_dict(cls, d: dict) -> "CrossSparsityPattern":
        with parsing("pattern mapping"):
            return cls(d["dim_a"], d["dim_b"],
                       frozenset(tuple(p) for p in d.get("zero_indices", [])))


def partition_to_sparsity(partition: BlockPartition) -> CrossSparsityPattern:
    """Pattern that zeroes every cross-covariance entry linking two different blocks.

    Under such a pattern the unknown correlation cannot couple distinct
    blocks, which is exactly the assumption behind block-wise intersection.
    """
    d = partition.dim
    zeros = set((i, j) for i in range(d) for j in range(d))
    for b in partition.blocks:
        for i in b:
            for j in b:
                zeros.discard((i, j))
    return CrossSparsityPattern(d, d, frozenset(zeros))


def partition_from_sparsity(pattern: CrossSparsityPattern) -> BlockPartition:
    """Coarsest partition whose blocks contain all free entries of a square pattern.

    Connected components of the graph with an edge (i, j) for every free
    cross entry; blocks come out ordered by their smallest index.
    """
    if pattern.dim_a != pattern.dim_b:
        raise DimensionError("partition recovery needs a square pattern")
    return BlockPartition(_components(pattern.dim_a, pattern.free_indices()))


def _components(d: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of 0..d-1 linked by ``pairs``, ascending, by smallest index."""
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


class StackLayout:
    """Block-diagonal storage of covariances: stacks of equal-size diagonal blocks.

    ``groups`` holds one (k, n) index array per block size, in the order
    the sizes first occur among the blocks sorted by smallest state; row
    b lists block b's states in ascending order.  A covariance is a tuple
    of (..., k, n, n) arrays, one per group, so one batched numpy call
    handles every block of a size.  Vectors live in permuted coordinates:
    entry i of a permuted vector is state ``perm[i]``, and each group's
    states form one contiguous (..., k, n) slice (see ``views``).
    ``position[s]`` is state s's entry in permuted coordinates.  One
    block of every state stores a dense covariance as it is.
    """

    def __init__(self, blocks):
        by_size: dict[int, list[list[int]]] = {}
        for blk in sorted((sorted(int(i) for i in b) for b in blocks), key=lambda b: b[0]):
            by_size.setdefault(len(blk), []).append(blk)
        self.groups = tuple(np.array(v, dtype=np.intp) for v in by_size.values())
        self.perm = np.concatenate([g.ravel() for g in self.groups])
        if not np.array_equal(np.sort(self.perm), np.arange(self.perm.size)):
            raise DimensionError("blocks must disjointly cover 0..dim-1")
        self.position = np.argsort(self.perm)
        ends = np.cumsum([g.size for g in self.groups]).tolist()
        self._slices = [slice(e - g.size, e) for g, e in zip(self.groups, ends)]

    @classmethod
    def from_pattern(cls, pattern: np.ndarray) -> "StackLayout":
        """Finest layout whose blocks hold every nonzero of a square pattern."""
        return cls(_components(pattern.shape[0], zip(*np.nonzero(pattern))))

    @property
    def dim(self) -> int:
        return self.perm.size

    def split(self, m: np.ndarray) -> tuple[np.ndarray, ...]:
        """The diagonal blocks of a (d, d) matrix, as one (k, n, n) stack per group."""
        return tuple(m[g[:, :, None], g[:, None, :]] for g in self.groups)

    def views(self, x: np.ndarray) -> list[np.ndarray]:
        """Per group, the (..., k, n) view of (..., d) vectors in permuted coordinates."""
        return [x[..., s].reshape(x.shape[:-1] + g.shape)
                for s, g in zip(self._slices, self.groups)]


# ---------------------------------------------------------------------------
# joint covariance

@dataclass(frozen=True, eq=False)
class JointCovariance:
    """Joint covariance of two estimates: [[P_a, P_ab], [P_ab^T, P_b]]."""

    p_a: np.ndarray
    p_b: np.ndarray
    p_ab: np.ndarray

    def __post_init__(self):
        p_a = check_symmetric(self.p_a, name="P_a")
        p_b = check_symmetric(self.p_b, name="P_b")
        p_ab = np.asarray(self.p_ab, dtype=float)
        if p_ab.shape != (p_a.shape[0], p_b.shape[0]):
            raise DimensionError(
                f"cross block must be {p_a.shape[0]}x{p_b.shape[0]}, got {p_ab.shape}")
        if not np.all(np.isfinite(p_ab)):
            raise DimensionError("cross block contains non-finite entries")
        object.__setattr__(self, "p_a", _as_readonly(p_a))
        object.__setattr__(self, "p_b", _as_readonly(p_b))
        object.__setattr__(self, "p_ab", _as_readonly(p_ab))

    @property
    def dim_a(self) -> int:
        return self.p_a.shape[0]

    @property
    def dim_b(self) -> int:
        return self.p_b.shape[0]

    def assembled(self) -> np.ndarray:
        """The full (dim_a + dim_b) joint matrix."""
        return np.block([[self.p_a, self.p_ab], [self.p_ab.T, self.p_b]])

    def is_positive_definite(self) -> bool:
        w = np.linalg.eigvalsh(self.assembled())
        return bool(w[0] > PD_RTOL * max(w[-1], 0.0) and w[-1] > 0.0)

    def respects(self, pattern: CrossSparsityPattern) -> bool:
        """True when every structurally-zero cross entry is exactly zero."""
        if (pattern.dim_a, pattern.dim_b) != (self.dim_a, self.dim_b):
            raise DimensionError("pattern size does not match the joint covariance")
        return not np.any(self.p_ab[pattern.zero_mask()])

    def in_uncertainty_set(self, pattern: CrossSparsityPattern) -> bool:
        """PD joint whose cross block honors the sparsity pattern."""
        return self.is_positive_definite() and self.respects(pattern)


# ---------------------------------------------------------------------------
# fusion results

class FusionMethod(str, Enum):
    CI = "CI"
    NMCI = "nmCI"
    SDP = "SDP"
    EXACT = "exact"


def validate_omega(omega, n_blocks: int) -> np.ndarray:
    """Check a per-block weight vector: length n_blocks, entries in [0, 1]."""
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.shape[0] != n_blocks:
        raise DimensionError(f"expected {n_blocks} weights, got {w.shape[0]}")
    if np.any(~np.isfinite(w)) or np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
        raise DimensionError("weights must lie in [0, 1]")
    return np.clip(w, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Gains, fused mean, and the conservative covariance bound of one fusion.

    ``gain_a + gain_b = I`` always holds (unbiasedness); ``omega`` carries
    the intersection weight(s) when the method has any, else None.
    ``diagnostics`` is free-form per-method reporting and must be treated
    as read-only.
    """

    gain_a: np.ndarray
    gain_b: np.ndarray
    fused_mean: np.ndarray
    bound: np.ndarray
    method: FusionMethod
    omega: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        ga = np.asarray(self.gain_a, dtype=float)
        gb = np.asarray(self.gain_b, dtype=float)
        if ga.shape != gb.shape or ga.ndim != 2 or ga.shape[0] != ga.shape[1]:
            raise DimensionError("gains must be square matrices of equal shape")
        d = ga.shape[0]
        if float(np.linalg.norm(ga + gb - np.eye(d))) > GAIN_SUM_ATOL:
            raise DimensionError("gain_a + gain_b must equal the identity")
        bound = check_symmetric(self.bound, name="bound")
        if bound.shape[0] != d:
            raise DimensionError("bound size does not match the gains")
        if min_eigenvalue(bound) < -PD_RTOL * max(float(np.linalg.norm(bound, 2)), 1e-300):
            raise NotPositiveDefiniteError("bound must be positive semidefinite")
        mean = np.asarray(self.fused_mean, dtype=float).reshape(-1)
        if mean.shape[0] != d:
            raise DimensionError("fused mean size does not match the gains")
        omega = self.omega
        if omega is not None:
            omega = validate_omega(omega, np.asarray(omega).size)
            omega.flags.writeable = False
        object.__setattr__(self, "gain_a", _as_readonly(ga))
        object.__setattr__(self, "gain_b", _as_readonly(gb))
        object.__setattr__(self, "fused_mean", _as_readonly(mean))
        object.__setattr__(self, "bound", _as_readonly(bound))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "method", FusionMethod(self.method))

    @property
    def dim(self) -> int:
        return self.bound.shape[0]

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "gain_a": self.gain_a.tolist(),
            "gain_b": self.gain_b.tolist(),
            "fused_mean": self.fused_mean.tolist(),
            "bound": self.bound.tolist(),
            "omega": None if self.omega is None else self.omega.tolist(),
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples so ``json_text`` accepts them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# JSON files: the package reads and writes every one through these

def json_text(obj) -> str:
    """The one JSON text form of every file the package writes: indent 2, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def write_json(path, obj) -> None:
    text = json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    """The JSON value in UTF-8 file ``path``; ConfigError naming the file if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # bad JSON, bytes that are not UTF-8, an integer too long to convert,
        # or nesting deeper than the parser recurses
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def make_substream_seed(master_seed: int, *keys) -> int:
    """Derive a decorrelated 64-bit child seed from a master seed and path keys.

    String keys are folded to integers with crc32 so the derivation is
    stable across runs and platforms.  The same (master, keys) always
    yields the same child seed.
    """
    import zlib

    ints = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for k in keys:
        if isinstance(k, str):
            ints.append(zlib.crc32(k.encode("utf-8")))
        else:
            ints.append(int(k) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, np.uint64)[0])


def make_substream(master_seed: int, *keys) -> np.random.Generator:
    """Generator seeded from make_substream_seed(master_seed, *keys)."""
    return np.random.Generator(np.random.PCG64(make_substream_seed(master_seed, *keys)))
