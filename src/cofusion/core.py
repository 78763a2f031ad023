"""Shared types for fusing Gaussian estimates under unknown correlation.

Defines labeled Gaussian estimates, state-index partitions, sparsity
patterns for the unknown cross-covariance, assembled joint covariances,
and the fusion-result record that every fusion rule returns.  All
covariance handling goes through the symmetry and definiteness checks
here so the rest of the package can assume clean inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
    """The rejection sampler exhausted its attempt budget."""


class SolverError(FusionError, RuntimeError):
    """The semidefinite solver could not produce a usable iterate."""


# ---------------------------------------------------------------------------
# matrix checks

def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def check_symmetric(m, *, rtol: float = SYMMETRY_RTOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and return the symmetrized float copy."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSymmetricError(f"{name} contains non-finite entries")
    scale = max(float(np.linalg.norm(m)), 1e-300)
    if float(np.linalg.norm(m - m.T)) > rtol * scale:
        raise NotSymmetricError(f"{name} is not symmetric within rtol={rtol:g}")
    return symmetrize(m)


def check_spd(m, *, rtol: float = PD_RTOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; returns the symmetrized copy."""
    m = check_symmetric(m, name=name)
    w = np.linalg.eigvalsh(m)
    if w[0] <= rtol * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (eig range [{w[0]:.3e}, {w[-1]:.3e}])")
    return m


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of m."""
    return float(np.linalg.eigvalsh(symmetrize(m))[0])


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
    scale = max(float(np.linalg.norm(bound, 2)), 1.0)
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
        self._validate(check_eigenvalues=True)

    def _validate(self, check_eigenvalues: bool) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        check = check_spd if check_eigenvalues else check_symmetric
        cov = check(self.covariance, name="covariance")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionError(
                f"mean has {mean.shape[0]} entries but covariance is {cov.shape[0]}x{cov.shape[0]}")
        if not np.all(np.isfinite(mean)):
            raise DimensionError("mean contains non-finite entries")
        labels = tuple(self.labels) if self.labels else tuple(f"x{i}" for i in range(mean.shape[0]))
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
        return _derived(GaussianEstimate, mean=self.mean[idx],
                        covariance=self.covariance[np.ix_(idx, idx)],
                        labels=tuple(self.labels[i] for i in idx))

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
        try:
            return cls(np.asarray(d["mean"], dtype=float),
                       np.asarray(d["covariance"], dtype=float),
                       tuple(d.get("labels") or ()))
        except KeyError as exc:
            raise ConfigError(f"estimate mapping is missing key {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GaussianEstimate":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
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
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
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
        try:
            return cls(tuple(tuple(b) for b in d["blocks"]))
        except KeyError as exc:
            raise ConfigError(f"partition mapping is missing key {exc}") from exc


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
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError("pattern dimensions must be positive")
        zi = frozenset((int(i), int(j)) for i, j in self.zero_indices)
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
        try:
            return cls(int(d["dim_a"]), int(d["dim_b"]),
                       frozenset((int(i), int(j)) for i, j in d.get("zero_indices", [])))
        except KeyError as exc:
            raise ConfigError(f"pattern mapping is missing key {exc}") from exc


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
    d = pattern.dim_a
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pattern.free_indices():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(tuple(groups[r]) for r in sorted(groups))
    return BlockPartition(blocks)


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

    def is_positive_definite(self, rtol: float = PD_RTOL) -> bool:
        w = np.linalg.eigvalsh(self.assembled())
        return bool(w[0] > rtol * max(w[-1], 0.0) and w[-1] > 0.0)

    def respects(self, pattern: CrossSparsityPattern, atol: float = 0.0) -> bool:
        """True when every structurally-zero cross entry is zero within atol."""
        if (pattern.dim_a, pattern.dim_b) != (self.dim_a, self.dim_b):
            raise DimensionError("pattern size does not match the joint covariance")
        mask = pattern.zero_mask()
        if not mask.any():
            return True
        return bool(np.max(np.abs(self.p_ab[mask])) <= atol)

    def in_uncertainty_set(self, pattern: CrossSparsityPattern, atol: float = 0.0) -> bool:
        """PD joint whose cross block honors the sparsity pattern."""
        return self.is_positive_definite() and self.respects(pattern, atol=atol)


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
        self._validate(check_eigenvalues=True)

    def _validate(self, check_eigenvalues: bool) -> None:
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
        if check_eigenvalues and \
                min_eigenvalue(bound) < -PD_RTOL * max(float(np.linalg.norm(bound, 2)), 1.0):
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


def _derived(cls, **values):
    """Build a GaussianEstimate or FusionResult from values the package derived.

    Runs every check of the public constructor except the eigenvalue test of
    the covariance or bound, which values derived from validated estimates
    pass by construction: a principal submatrix of an SPD matrix is SPD,
    and so is the inverse of a positive combination of SPD informations.
    """
    obj = object.__new__(cls)
    for f in fields(cls):
        object.__setattr__(obj, f.name, values[f.name])
    obj._validate(check_eigenvalues=False)
    return obj


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dump accepts them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


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
