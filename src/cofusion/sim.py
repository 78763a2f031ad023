"""Multi-agent multi-target tracking simulator with pluggable channel fusion.

Targets follow independent nearly-constant-velocity dynamics per axis;
each agent measures its group's targets through a constant personal
position bias, plus a landmark observation of the bias itself.  Every
agent runs a Kalman filter over the full global state (all targets, all
biases) and exchanges estimates with its neighbors once per step using
the configured fusion rule (CI, block-wise CI, or no fusion at all); a
centralized filter over all measurements serves as the consistency
baseline.  The sampled semidefinite bound is for single fusions
(``cofusion fuse``, ``cofusion compare``), not for the tracker.

Dynamics and noise levels are deliberately open degrees of freedom, so
they are explicit scenario parameters with documented defaults.
All randomness descends from one master seed through named substreams,
so different fusion methods see identical truths and measurements.
``agent_filter_model`` is the only sensor model: a run's measurements
are the centralized filter's H times the true state plus chol(R) times
standard normals drawn in one call per run.  They form one (steps, rows)
array in the centralized filter's row order: agents in id order, each
agent's block in the row order of its own filter's H.  The centralized
filter reads every row, and each agent's filter reads its own contiguous
block.

Covariances, Kalman gains, intersection weights and fusion gains never
depend on the data: the Riccati recursion runs the same in every
Monte-Carlo run.  So one lockstep steps every method's filters, side by
side, through all runs at once.  One covariance pass per scenario does
the filter steps of all filters together, then each fusing method's
round on its own filters through ``fusion._nmci``, the block-wise core
behind ``nmci_fuse`` (CI is its one-block case), and
applies the gains to a (runs, filters, d) array of means.  A round's
edges go in waves: each wave is one ``_nmci`` call over edges that share
no agent, and each edge waits only for the earlier edges that share one
of its agents, so every agent sees the inputs it would see edge by edge.
``_nmci`` fuses the pieces where stack blocks meet partition blocks and
reads nothing else, so the tracker's fusion has no failure path: whether
the partition leaves entries outside every piece (``_Pieces.off``) is a
fact about the scenario's layout.  With ``group_axes`` and diagonal
noise there are none; with ``group_target_bias`` the target-bias
coupling is left out, where ``nmci_fuse`` would refuse it.  NEES,
errors and the recorded figures are computed over blocks of steps, for
every filter at once.  Every sum but NEES's runs in index order, so a
run's weights and every series but NEES are bitwise the same whatever
the run count.

That pass exploits the scenario's independence structure.  The
connected components of the union sparsity pattern of P0, F, Q and each
filter's H^T|R|H are blocks that no filter step, CI or block-wise CI
ever couples, so every covariance is exactly block-diagonal over them.
Each filter's covariance is carried as stacks of its diagonal blocks,
one (k, n, n) stack per block size (``core.StackLayout``), and means,
truth and errors live in the matching permuted coordinates; each
method's ``MethodTrack`` returns to state-label order and holds the
series that read only covariances and weights once, for every run.  On
both presets the blocks are the (group, axis) pairs.  A
scenario whose structure couples every state runs as one block through
the same code, and ``local_filter_step`` and ``nmci_fuse`` treat a
dense covariance as a stack of one block.

The pass also computes each distinct covariance once.  Which (filter,
block) covariances are bitwise equal follows from the structure alone,
and ``_class_schedule`` derives these classes once per scenario.  The
filter step, its definiteness check and each wave's trace terms and
intersections run on one representative per class, gathered to every
(filter, block); each weight search still sums every block's terms.
Means, NEES and the recorded figures stay per filter.  On both presets
the x- and y-axis blocks of a group are one class, both agents of an
edge adopt one bound, and an agent's filters of several methods are one
class until its first fusion.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace

import numpy as np

from .core import (
    BlockPartition,
    ConfigError,
    FusionError,
    GaussianEstimate,
    StackLayout,
    _jsonable,
    as_int,
    as_name,
    as_real,
    as_seed,
    check_spd,
    check_spd_stacks,
    make_substream,
    parsing,
    read_json,
    symmetrize,
)
from .fusion import _classes, _Fold, _fused_mean, _nmci, _Pieces, ci_fuse, nmci_fuse
from .sdp import robust_fuse  # noqa: F401  (perfbench/tracing.py wraps sim.robust_fuse)
from . import metrics as _metrics

SCENARIO_SCHEMA = "cofusion-scenario-v1"
METHODS = ("centralized", "CI", "nmCI", "none")
PARTITION_SCHEMES = ("group_target_bias", "group_axes")
NEES_BAND_LEVEL = 0.95      # central probability of the NEES band ``summarize`` reports
_INT_FIELDS = ("n_steps", "mc_runs", "report_agent", "fusion_every", "fusion_start")
_REAL_FIELDS = ("dt", "q", "bias_range", "prior_position_var", "prior_velocity_var",
               "prior_bias_var", "init_position_spread", "init_velocity_std")


# ---------------------------------------------------------------------------
# state layout

@dataclass(frozen=True)
class StateLayout:
    """Index bookkeeping for the global state [targets..., biases...].

    Target t occupies 4 slots [x, vx, y, vy] starting at 4t; agent a's
    bias occupies 2 slots [bx, by] starting at 4*n_targets + 2a.
    """

    n_targets: int
    n_agents: int

    @property
    def dim(self) -> int:
        return 4 * self.n_targets + 2 * self.n_agents

    def target_indices(self, t: int) -> list[int]:
        return [4 * t, 4 * t + 1, 4 * t + 2, 4 * t + 3]

    def bias_indices(self, a: int) -> list[int]:
        base = 4 * self.n_targets + 2 * a
        return [base, base + 1]

    def position_indices(self) -> list[int]:
        return [i for t in range(self.n_targets) for i in (4 * t, 4 * t + 2)]

    def labels(self) -> tuple[str, ...]:
        labs = []
        for t in range(self.n_targets):
            labs += [f"t{t}:px", f"t{t}:vx", f"t{t}:py", f"t{t}:vy"]
        for a in range(self.n_agents):
            labs += [f"a{a}:bx", f"a{a}:by"]
        return tuple(labs)


def target_transition(dt: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-target (4x4) transition and process noise, x and y decoupled."""
    dt = np.float64(dt)     # a huge dt overflows to inf instead of raising
    phi = np.array([[1.0, dt], [0.0, 1.0]])
    qn = q * np.array([[dt ** 3 / 3.0, dt ** 2 / 2.0], [dt ** 2 / 2.0, dt]])
    z = np.zeros((2, 2))
    return np.block([[phi, z], [z, phi]]), np.block([[qn, z], [z, qn]])


def global_transition(layout: StateLayout, dt: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Full-state transition and process noise; biases are constants."""
    d = layout.dim
    f = np.eye(d)
    qn = np.zeros((d, d))
    phi, q4 = target_transition(dt, q)
    for t in range(layout.n_targets):
        ix = np.ix_(layout.target_indices(t), layout.target_indices(t))
        f[ix] = phi
        qn[ix] = q4
    return f, qn


# ---------------------------------------------------------------------------
# scenario configuration

@dataclass(frozen=True)
class GroupSpec:
    agents: tuple[int, ...]
    targets: tuple[int, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one tracking experiment.

    The dynamics/noise defaults (dt, q, R matrices, bias range, priors)
    are artifact choices; the reference experiment they imitate does not
    specify them.
    """

    name: str = "scenario"
    seed: int = 0
    dt: float = 1.0
    q: float = 0.01
    n_steps: int = 100
    mc_runs: int = 15
    groups: tuple[GroupSpec, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    assignments: tuple[tuple[int, ...], ...] | None = None
    r_target: tuple = ((1.0, 0.0), (0.0, 1.0))
    r_landmark: tuple = ((0.25, 0.0), (0.0, 0.25))
    agent_r_target: tuple | None = None
    bias_range: float = 2.0
    prior_position_var: float = 100.0
    prior_velocity_var: float = 25.0
    prior_bias_var: float = 4.0
    init_position_spread: float = 50.0
    init_velocity_std: float = 1.0
    methods: tuple[str, ...] = ("centralized", "CI", "nmCI")
    partition_scheme: str = "group_target_bias"
    report_agent: int = 0
    fusion_every: int = 1
    fusion_start: int = 0
    record_estimates: str = "all"

    def __post_init__(self):
        object.__setattr__(self, "name", as_name(self.name))
        object.__setattr__(self, "seed", as_seed(self.seed))
        for name in _INT_FIELDS:
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        groups = tuple(GroupSpec(tuple(as_int(a, "group agent id") for a in g.agents),
                                 tuple(as_int(t, "group target id") for t in g.targets))
                       for g in self.groups)
        if not groups:
            raise ConfigError("at least one group is required")
        agents = [a for g in groups for a in g.agents]
        targets = [t for g in groups for t in g.targets]
        if sorted(agents) != list(range(len(agents))):
            raise ConfigError("group agent ids must disjointly cover 0..n_agents-1")
        if sorted(targets) != list(range(len(targets))):
            raise ConfigError("group target ids must disjointly cover 0..n_targets-1")
        if not targets:
            raise ConfigError("at least one target is required")
        n_agents = len(agents)
        edges = tuple((as_int(i, "edge end"), as_int(j, "edge end"))
                      for i, j in map(tuple, self.edges))
        seen = set()
        for i, j in edges:
            if i == j or not (0 <= i < n_agents and 0 <= j < n_agents):
                raise ConfigError(f"invalid edge ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ConfigError(f"duplicate edge ({i}, {j})")
            seen.add(key)
        group_of = {}
        for gi, g in enumerate(groups):
            for a in g.agents:
                group_of[a] = gi
        if self.assignments is None:
            assigned = tuple(tuple(groups[group_of[a]].targets) for a in range(n_agents))
        else:
            assigned = tuple(map(tuple, self.assignments))
            if len(assigned) != n_agents:
                raise ConfigError("assignments must list targets for every agent")
            assigned = tuple(tuple(as_int(t, "assigned target") for t in ts) for ts in assigned)
        for a, ts in enumerate(assigned):
            if not ts:
                raise ConfigError(f"agent {a} needs at least one assigned target")
            if not set(ts) <= set(groups[group_of[a]].targets):
                raise ConfigError(f"agent {a} may only be assigned its own group's targets")
        for m in (check_spd(np.asarray(self.r_target, dtype=float), name="r_target"),
                  check_spd(np.asarray(self.r_landmark, dtype=float), name="r_landmark")):
            if m.shape != (2, 2):
                raise ConfigError("noise matrices must be 2x2")
        if self.agent_r_target is not None:
            if len(self.agent_r_target) != n_agents:
                raise ConfigError("agent_r_target must list one matrix per agent")
            for a, m in enumerate(self.agent_r_target):
                m = check_spd(np.asarray(m, dtype=float), name=f"agent_r_target[{a}]")
                if m.shape != (2, 2):
                    raise ConfigError("noise matrices must be 2x2")
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("methods must be non-empty")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (choose from {METHODS})")
        if self.partition_scheme not in PARTITION_SCHEMES:
            raise ConfigError(f"unknown partition scheme {self.partition_scheme!r}")
        if not (0 <= self.report_agent < n_agents):
            raise ConfigError("report_agent out of range")
        if self.record_estimates not in ("all", "report", "none"):
            raise ConfigError("record_estimates must be all, report, or none")
        if self.dt <= 0 or self.q < 0 or self.n_steps < 1 or self.mc_runs < 1 \
                or self.fusion_every < 1 or self.bias_range < 0 \
                or self.fusion_start < 0:
            raise ConfigError("dt > 0, q >= 0, n_steps/mc_runs/fusion_every >= 1, "
                              "bias_range >= 0, fusion_start >= 0 required")
        with np.errstate(over="ignore", invalid="ignore"):
            if not all(np.all(np.isfinite(m)) for m in target_transition(self.dt, self.q)):
                raise ConfigError(f"dt = {self.dt!r} and q = {self.q!r} give a transition "
                                  "or process noise with non-finite entries")
        if min(self.prior_position_var, self.prior_velocity_var, self.prior_bias_var) <= 0:
            raise ConfigError("prior variances must be positive")
        if self.init_position_spread < 0 or self.init_velocity_std < 0:
            raise ConfigError("init_position_spread and init_velocity_std must be >= 0")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "assignments", assigned)
        object.__setattr__(self, "methods", methods)
        def floats(m):
            return tuple(tuple(float(v) for v in row) for row in m)

        object.__setattr__(self, "r_target", floats(self.r_target))
        object.__setattr__(self, "r_landmark", floats(self.r_landmark))
        if self.agent_r_target is not None:
            object.__setattr__(self, "agent_r_target", tuple(map(floats, self.agent_r_target)))

    @property
    def n_agents(self) -> int:
        return sum(len(g.agents) for g in self.groups)

    @property
    def n_targets(self) -> int:
        return sum(len(g.targets) for g in self.groups)

    def layout(self) -> StateLayout:
        return StateLayout(self.n_targets, self.n_agents)

    def to_dict(self) -> dict:
        return {"schema": SCENARIO_SCHEMA, **_jsonable(asdict(self))}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ConfigError("scenario config must be a mapping")
        if d.get("schema") != SCENARIO_SCHEMA:
            raise ConfigError(f"unsupported scenario schema {d.get('schema')!r}; "
                              f"expected {SCENARIO_SCHEMA!r}")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(d) - known - {"schema"}
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        kw = {k: v for k, v in d.items() if k != "schema"}
        with parsing("scenario config"):
            if "groups" in kw:
                parsed = []
                for g in kw["groups"]:
                    if not isinstance(g, dict) or set(g) != {"agents", "targets"}:
                        raise ConfigError("each group needs exactly the keys agents, targets")
                    parsed.append(GroupSpec(tuple(g["agents"]), tuple(g["targets"])))
                kw["groups"] = tuple(parsed)
            return cls(**kw)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_dict(read_json(path))


# ---------------------------------------------------------------------------
# filter models: the one sensor model

@dataclass(frozen=True)
class FilterModel:
    """Precomputed matrices for one filter: dynamics and observation."""

    f: np.ndarray
    q: np.ndarray
    h: np.ndarray
    r: np.ndarray


def agent_filter_model(scenario: ScenarioConfig, a: int,
                       dynamics: tuple[np.ndarray, np.ndarray]) -> FilterModel:
    """Observation and dynamics matrices for agent ``a``'s local filter.

    Agent ``a`` measures the position of each assigned target through its
    bias, in assignment order with noise ``agent_r_target[a]`` (else
    ``r_target``), then observes the bias itself on a landmark with noise
    ``r_landmark``.  ``draw_run`` generates measurements through these H
    and R, so this is the simulator's only sensor model.  ``dynamics`` is
    the scenario's ``global_transition``, one F and Q that every agent's
    model shares.
    """
    layout = scenario.layout()
    f, qn = dynamics
    targets = scenario.assignments[a]
    r_target = scenario.r_target if scenario.agent_r_target is None \
        else scenario.agent_r_target[a]
    rows = 2 * (len(targets) + 1)
    h = np.zeros((rows, layout.dim))
    r = np.zeros((rows, rows))
    bi = layout.bias_indices(a)
    row = 0
    for t in targets:
        ti = layout.target_indices(t)
        h[row, [ti[0], bi[0]]] = 1.0
        h[row + 1, [ti[2], bi[1]]] = 1.0
        r[row:row + 2, row:row + 2] = r_target
        row += 2
    h[row, bi[0]] = 1.0
    h[row + 1, bi[1]] = 1.0
    r[row:, row:] = scenario.r_landmark
    return FilterModel(f=f, q=qn, h=h, r=r)


@dataclass(frozen=True, eq=False)
class _Update:
    """Measurement update of the (filter, block) pairs sharing a block size and row count."""

    group: int               # the blocks' size group in the layout
    filters: np.ndarray      # (u,) filter of each pair
    blocks: np.ndarray       # (u,) block within the group
    rows: np.ndarray         # (u, m) the pair's entries of the measurement vector
    h: np.ndarray            # (u, m, n) observation rows on the block's states
    r: np.ndarray            # (u, m, m) their noise covariance


@dataclass(frozen=True, eq=False)
class _FilterPlan:
    """Filters sharing F, Q and a stack layout, prepared for ``_covariance_step``."""

    layout: StackLayout
    f: tuple                 # per size group, (k, n, n) blocks of F
    q: tuple                 # and of Q
    updates: tuple
    n_filters: int


def _filter_plan(layout: StackLayout, models: list[FilterModel], offsets) -> _FilterPlan:
    """Split each model's update over the layout's blocks, grouped by size and row count.

    A measurement row belongs to the block of the states it observes;
    the layout must keep every row, and every noise coupling between
    rows, within one block.  ``offsets[c]`` is where filter c's rows start
    in the measurement vector ``_mean_step`` reads.
    """
    group_of = np.empty(layout.dim, dtype=np.intp)
    block_of = np.empty(layout.dim, dtype=np.intp)
    for g, states in enumerate(layout.groups):
        group_of[states] = g
        block_of[states] = np.arange(states.shape[0])[:, None]
    pairs: dict[tuple[int, int], list] = {}
    for c, (model, offset) in enumerate(zip(models, offsets)):
        first = np.argmax(model.h != 0.0, axis=1)
        keys = list(zip(group_of[first].tolist(), block_of[first].tolist()))
        for g, blk in dict.fromkeys(keys):
            rows = np.flatnonzero([k == (g, blk) for k in keys])
            states = layout.groups[g][blk]
            pairs.setdefault((g, rows.size), []).append(
                (c, blk, rows + offset, model.h[np.ix_(rows, states)],
                 model.r[np.ix_(rows, rows)]))
    updates = tuple(_Update(g, *(np.array(column) for column in zip(*ps)))
                    for (g, _m), ps in pairs.items())
    return _FilterPlan(layout=layout, f=layout.split(models[0].f),
                       q=layout.split(models[0].q), updates=updates, n_filters=len(models))


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


@dataclass(frozen=True, eq=False)
class _StepFold:
    """The classes of equal (filter, block) covariances one ``_covariance_step`` computes.

    Per size group, ``rows`` holds the flat (filter, block) index of each
    class's representative, ``blocks`` its block, whose F and Q it takes, and
    ``inverse`` the (filters, k) class of every (filter, block).  Per
    update group of the plan, ``updates`` holds (classes, pair, inverse):
    the classes it updates, the pair whose H and R each takes, and the
    class of each of its pairs among them.
    """

    rows: tuple
    blocks: tuple
    inverse: tuple
    updates: tuple

    @classmethod
    def of(cls, plan: _FilterPlan, inverse: list[np.ndarray], rows) -> "_StepFold":
        """The fold of classes ``inverse`` (filters, k) per group, with representatives ``rows``."""
        blocks = [r % f.shape[0] for r, f in zip(rows, plan.f)]
        updates = []
        for up in plan.updates:
            classes, pair, pairs = np.unique(inverse[up.group][up.filters, up.blocks],
                                             return_index=True, return_inverse=True)
            updates.append((classes, pair, pairs))
        return cls(rows=tuple(rows), blocks=tuple(blocks), inverse=tuple(inverse),
                   updates=tuple(updates))


def _covariance_step(covs: list[np.ndarray], plan: _FilterPlan, fold: _StepFold) -> list:
    """Covariance half of ``local_filter_step`` for every filter of a plan at once.

    ``covs`` holds, per size group, the filters' (filters, k, n, n) block
    stacks, and is updated in place.  ``fold`` names the (filter, block)
    covariances that come out equal: one representative of each is
    predicted, in one batched call per group, and updated if its filter's
    H observes its block, in one batched call per update group; the
    results are checked for definiteness and gathered to every (filter,
    block).  Returns the Kalman gain of each update group's pairs, (u, n,
    m).  Neither depends on the mean or the measurement, so one call
    serves every run that shares the covariances.
    """
    reps = [symmetrize(f[b] @ c.reshape((-1,) + c.shape[-2:])[rows] @ _t(f[b]) + q[b])
            for c, rows, b, f, q in zip(covs, fold.rows, fold.blocks, plan.f, plan.q)]
    gains = []
    for up, (classes, pair, inverse) in zip(plan.updates, fold.updates):
        cov, h, r = reps[up.group][classes], up.h[pair], up.r[pair]
        s = h @ cov @ _t(h) + r
        k = _t(np.linalg.solve(_t(s), _t(cov @ _t(h))))
        ikh = np.eye(cov.shape[-1]) - k @ h
        reps[up.group][classes] = symmetrize(ikh @ cov @ _t(ikh) + k @ r @ _t(k))
        gains.append(k[inverse])    # a gather keeps the gains' memory layout
    # an estimate runs this check when built; a filter that loses
    # definiteness signals a misconfigured scenario
    check_spd_stacks(reps, name="covariance", members=fold.inverse)
    for g, (rep, inverse) in enumerate(zip(reps, fold.inverse)):
        covs[g] = rep[inverse]
    return gains


def _mean_step(means: np.ndarray, plan: _FilterPlan, gains: list[np.ndarray],
               z: np.ndarray) -> None:
    """Mean half of the filter step, in place on (runs, filters, d) permuted means.

    ``z`` is (runs, rows), the measurement vector the plan's rows index.
    Every product is one matrix-vector product per run and block, so a
    run's means do not depend on how many runs share the call.
    """
    views = plan.layout.views(means)
    for view, f in zip(views, plan.f):
        view[...] = (f @ view[..., None])[..., 0]
    for up, k in zip(plan.updates, gains):
        view = views[up.group]
        x = view[:, up.filters, up.blocks]
        innov = z[:, up.rows] - (up.h @ x[..., None])[..., 0]
        view[:, up.filters, up.blocks] = x + (k @ innov[..., None])[..., 0]


def local_filter_step(belief: GaussianEstimate, model: FilterModel,
                      z: np.ndarray) -> GaussianEstimate:
    """Linear predict + measurement update (Joseph form) on the global state.

    States the observation matrix does not touch are only predicted.  A
    covariance that comes out non-SPD fails construction, which signals
    a misconfigured scenario rather than being patched over.  The
    covariance is one dense block of the tracker's stacked filter step.
    """
    plan = _filter_plan(StackLayout([range(belief.dim)]), [model], [0])
    covs = [belief.covariance[None, None]]
    one = np.zeros((1, 1), dtype=np.intp)     # one filter, one block: one class
    gains = _covariance_step(covs, plan, _StepFold.of(plan, [one], [one[0]]))
    means = belief.mean[None, None].copy()
    _mean_step(means, plan, gains, np.asarray(z, dtype=float)[None])
    return GaussianEstimate(means[0, 0], covs[0][0, 0], belief.labels)


# ---------------------------------------------------------------------------
# partitions

def build_partition(scenario: ScenarioConfig) -> BlockPartition:
    """Fusion partition over the global state, by ``scenario.partition_scheme``.

    ``group_target_bias`` groups each agent-group's target states and,
    separately, its agents' biases (the coupling an agent's measurements
    create between the two lies outside every block, and block-wise
    fusion leaves it out).  ``group_axes`` groups each agent-group's
    x-axis states and y-axis states; with diagonal noise matrices those
    blocks stay exactly uncorrelated, so no coupling is ever left out.
    """
    layout = scenario.layout()
    blocks: list[tuple[int, ...]] = []
    if scenario.partition_scheme == "group_target_bias":
        for g in scenario.groups:
            tblk = [i for t in g.targets for i in layout.target_indices(t)]
            bblk = [i for a in g.agents for i in layout.bias_indices(a)]
            blocks += [tuple(tblk), tuple(bblk)]
    else:   # group_axes, the one other name the scenario accepts
        for g in scenario.groups:
            xblk, yblk = [], []
            for t in g.targets:
                ti = layout.target_indices(t)
                xblk += [ti[0], ti[1]]
                yblk += [ti[2], ti[3]]
            for a in g.agents:
                bi = layout.bias_indices(a)
                xblk.append(bi[0])
                yblk.append(bi[1])
            blocks += [tuple(xblk), tuple(yblk)]
    return BlockPartition(tuple(blocks))


# ---------------------------------------------------------------------------
# fusion round

def fusion_round(beliefs: list[GaussianEstimate], edges, method: str, step: int,
                 partition: BlockPartition) -> tuple[list[GaussianEstimate], np.ndarray]:
    """Fuse along every edge in order; both endpoints adopt the result.

    Edges are processed sequentially in the given order, so later edges
    see the outcome of earlier ones within the same round.  This is the
    per-estimate reference of the tracker's round, which fuses edges that
    share no agent with any pending earlier edge together and gets the
    same results (see ``_fuse_round``); its weights, like every series
    but NEES, do not depend on the run count.  ``partition`` is the block
    structure every agent shares; only the block-wise method reads it.
    The tracker's core never reads the entries outside the partition
    blocks, so each endpoint's are zeroed before ``nmci_fuse``, which
    refuses inputs that couple blocks.  Returns the (edges, blocks)
    weights: one block for CI, none for ``none``.  A failing edge aborts
    with its id.
    """
    blocks = {"CI": 1, "nmCI": partition.n_blocks, "none": 0}.get(method)
    if blocks is None:
        raise ConfigError(f"fusion_round cannot run method {method!r}")
    off = _Pieces(StackLayout([range(partition.dim)]), partition).off[0]

    def blockwise(x: GaussianEstimate) -> GaussianEstimate:
        cov = x.covariance.copy()
        cov.flat[off] = 0.0
        return GaussianEstimate(x.mean, cov, x.labels)

    out = list(beliefs)
    omegas = np.empty((len(edges), blocks))
    for e, (i, j) in enumerate(edges if blocks else ()):
        try:
            if method == "CI":
                res = ci_fuse(out[i], out[j])
            else:
                res = nmci_fuse(blockwise(out[i]), blockwise(out[j]), partition)
        except FusionError as exc:
            raise FusionError(f"fusion failed on edge ({i}, {j}) at step {step}: {exc}") from exc
        out[i] = out[j] = GaussianEstimate(res.fused_mean, res.bound, out[i].labels)
        omegas[e] = res.omega
    return out, omegas


# ---------------------------------------------------------------------------
# Monte-Carlo runs

def _prior_covariance(scenario: ScenarioConfig) -> np.ndarray:
    layout = scenario.layout()
    diag = []
    for _t in range(layout.n_targets):
        diag += [scenario.prior_position_var, scenario.prior_velocity_var] * 2
    diag += [scenario.prior_bias_var] * (2 * layout.n_agents)
    return np.diag(np.array(diag))


def _row_blocks(models: list[FilterModel]) -> list[slice]:
    """Each agent model's rows within the centralized model's, in agent id order."""
    ends = np.cumsum([m.h.shape[0] for m in models]).tolist()
    return [slice(e - m.h.shape[0], e) for m, e in zip(models, ends)]


def centralized_model(models: list[FilterModel]) -> FilterModel:
    """One filter consuming every agent's measurements each step.

    ``models`` are the agents' own, in id order; their rows stack into
    one H with a block-diagonal R.
    """
    h = np.vstack([m.h for m in models])
    r = np.zeros((h.shape[0], h.shape[0]))
    for m, rows in zip(models, _row_blocks(models)):
        r[rows, rows] = m.r
    return FilterModel(f=models[0].f, q=models[0].q, h=h, r=r)


@dataclass(frozen=True)
class RunDraws:
    """Everything random in one Monte-Carlo run; every method replays it."""

    truth: np.ndarray              # (steps, d) true state after each step
    meas: np.ndarray               # (steps, rows) centralized row order
    prior_mean: np.ndarray         # (d,) shared prior mean of every filter


def draw_run(scenario: ScenarioConfig, run_idx: int, model: FilterModel) -> RunDraws:
    """Draw one run's truth, measurements and prior from its substreams.

    Biases, initial target states and the truth steps come from the
    run's "truth" substream, measurements from "meas" and the prior
    perturbation from "prior", so every method sees the same run.  The
    process noise is one (steps, targets, 4) draw, and each truth step
    moves every target by one batched matrix-vector product, which rounds
    as a per-target product does.  ``model`` is the scenario's
    ``centralized_model``: each step's measurement is its H times the
    true state plus noise with covariance R, the standard normals drawn
    in one call, in row order step by step.
    """
    layout = scenario.layout()
    d = layout.dim
    n_a, n_t, steps = scenario.n_agents, scenario.n_targets, scenario.n_steps

    rng_truth = make_substream(scenario.seed, "truth", run_idx)
    rng_meas = make_substream(scenario.seed, "meas", run_idx)
    rng_prior = make_substream(scenario.seed, "prior", run_idx)

    biases = rng_truth.uniform(-scenario.bias_range, scenario.bias_range, size=(n_a, 2))
    x = np.zeros(d)
    for t in range(n_t):
        ti = layout.target_indices(t)
        pos = rng_truth.uniform(-scenario.init_position_spread,
                                scenario.init_position_spread, 2)
        vel = rng_truth.normal(0.0, scenario.init_velocity_std, 2)
        x[ti] = [pos[0], vel[0], pos[1], vel[1]]
    for a in range(n_a):
        x[layout.bias_indices(a)] = biases[a]

    # targets fill the first 4 * n_t states, target t's four from 4t
    truth = np.repeat(x[None], steps, axis=0)
    targets = truth[:, :4 * n_t].reshape(steps, n_t, 4, 1)
    phi, qn = target_transition(scenario.dt, scenario.q)
    noise = np.linalg.cholesky(qn) @ rng_truth.standard_normal((steps, n_t, 4, 1)) \
        if scenario.q > 0 else None
    xk = targets[0].copy()
    for k in range(steps):
        xk = phi @ xk
        if noise is not None:
            xk += noise[k]
        targets[k] = xk
    w = rng_meas.standard_normal((steps, model.h.shape[0]))
    meas = truth @ model.h.T + w @ np.linalg.cholesky(model.r).T

    # every agent and the centralized baseline start from one shared
    # prior belief; a common prior keeps fusion of untouched states a
    # no-op instead of an uncredited averaging of independent errors
    l0 = np.linalg.cholesky(_prior_covariance(scenario))
    prior_mean = x + l0 @ rng_prior.standard_normal(d)
    return RunDraws(truth=truth, meas=meas, prior_mean=prior_mean)


def _stack_layout(p0: np.ndarray, models: list[FilterModel]) -> StackLayout:
    """The finest blocks no step of the tracker couples: components of P0, F, Q, H^T|R|H.

    The Kalman update keeps a block-diagonal covariance block-diagonal
    when every measurement row, and every noise coupling between rows,
    stays within one block; CI and block-wise CI act block by block.  A
    scenario whose structure couples every state gets one block.
    """
    f, q = models[0].f, models[0].q
    pattern = (p0 != 0.0) | (f != 0.0) | (f.T != 0.0) | (q != 0.0)
    for m in models:
        h = np.abs(m.h)
        pattern |= (h.T @ np.abs(m.r) @ h) != 0.0
    return StackLayout.from_pattern(pattern)


def _fusion_waves(edges) -> list[np.ndarray]:
    """The edges of a fusion round as waves: arrays of edge positions, in order.

    Each edge goes one wave after the latest earlier edge that shares one
    of its agents, so no wave holds two edges with a common agent, and
    every edge's inputs are final once the waves before its own are
    fused: fusing wave by wave gives each agent the inputs the configured
    order does.
    """
    last: dict[int, int] = {}     # agent -> wave of its latest edge so far
    waves: list[list[int]] = []
    for e, (i, j) in enumerate(edges):
        w = 1 + max(last.get(i, -1), last.get(j, -1))
        if w == len(waves):
            waves.append([])
        waves[w].append(e)
        last[i] = last[j] = w
    return [np.array(wave, dtype=np.intp) for wave in waves]


def _fusing(scenario: ScenarioConfig) -> np.ndarray:
    """(steps,) booleans: step k fuses when k + 1 - ``fusion_start`` is a positive
    multiple of ``fusion_every``."""
    after = np.arange(1, scenario.n_steps + 1) - scenario.fusion_start
    return (after > 0) & (after % scenario.fusion_every == 0)


def _class_schedule(plan: _FilterPlan, lanes: list[tuple], waves: list[np.ndarray],
                    prior: tuple, fusing: np.ndarray) -> list[tuple]:
    """Per step, the filter step's ``_StepFold`` and, on a fusing step, each lane's wave folds.

    ``lanes`` holds one (pieces, edges) lane per fusing method: its
    partition on the plan's layout and the (edges, 2) filters it fuses.
    A (filter, block) covariance's class is its history: the prior block;
    then the class it was stepped from and its model, the block's F and Q
    and the filter's H and R on it; then, where it was fused, the class
    of the bound its edge adopted (``_Fold.of``).  Equal histories give
    bitwise equal matrices, since every batched numpy call treats its
    matrices one by one, so an agent's CI, nmCI and unfused filters are
    one class until its first fusion.  The folds depend only on the
    classes before them, so each distinct one is built once.  ``prior`` is
    the prior covariance as the layout's stacks, ``fusing`` says which
    steps fuse.
    """
    n = plan.n_filters
    state = [np.tile(_classes(p.reshape(p.shape[0], -1))[0], (n, 1)) for p in prior]
    model = []
    for f, q in zip(plan.f, plan.q):
        m = np.full((n, f.shape[0], 3), -1, dtype=np.intp)
        m[..., 0] = _classes(np.concatenate([f.reshape(f.shape[0], -1),
                                             q.reshape(q.shape[0], -1)], axis=1))[0]
        model.append(m)
    for u, up in enumerate(plan.updates):
        hr = np.concatenate([up.h.reshape(up.h.shape[0], -1), up.r.reshape(up.r.shape[0], -1)],
                            axis=1)
        model[up.group][up.filters, up.blocks, 1:] = np.stack(
            [np.full(up.filters.size, u), _classes(hr)[0]], axis=1)

    def step(state):
        keys = [np.concatenate([s[..., None], m], axis=-1).reshape(-1, 4)
                for s, m in zip(state, model)]
        inverse, rows = zip(*map(_classes, keys))
        after = [i.reshape(s.shape) for i, s in zip(inverse, state)]
        return _StepFold.of(plan, after, rows), after

    def wave(state, lane, w):
        pieces, edges = lanes[lane]
        ii, jj = edges[waves[w], 0], edges[waves[w], 1]
        fold, out = _Fold.of(pieces, [s[ii] for s in state], [s[jj] for s in state])
        after = [s.copy() for s in state]
        for s, o in zip(after, out):
            # fresh labels; the next filter step numbers the classes anew
            s[ii] = s[jj] = s.max() + 1 + o
        return fold, after

    built: dict = {}

    def folded(kind, state, *args):
        key = (kind, *args, *(s.tobytes() for s in state))
        if key not in built:
            built[key] = kind(state, *args)
        return built[key]

    schedule = []
    for fuse in fusing:
        step_fold, state = folded(step, state)
        lane_folds = [[] for _ in lanes] if fuse else None
        for lane in range(len(lanes)) if fuse else ():
            for w in range(len(waves)):
                fold, state = folded(wave, state, lane, w)
                lane_folds[lane].append(fold)
        schedule.append((step_fold, lane_folds))
    return schedule


def _fuse_round(covs: list[np.ndarray], views: list[np.ndarray], edges: np.ndarray,
                waves: list[np.ndarray], pieces: _Pieces, folds: list,
                omegas: np.ndarray) -> None:
    """Fuse one round's (edges, 2) filter pairs wave by wave, in place.

    ``covs`` holds per size group the (filters, k, n, n) stacks and
    ``views`` the (runs, filters, k, n) means.  Each wave is one
    ``_nmci`` call over its edges, folded by its ``_Fold``; its weights
    go to its rows of the (edges, blocks) ``omegas``.
    """
    for wave, fold in zip(waves, folds):
        ii, jj = edges[wave, 0], edges[wave, 1]
        omegas[wave], gains_a, bounds = _nmci([c[ii] for c in covs], [c[jj] for c in covs],
                                              pieces, fold)
        for view, c, gain_a, bound in zip(views, covs, gains_a, bounds):
            view[:, ii] = view[:, jj] = _fused_mean(gain_a, view[:, ii], view[:, jj])
            c[ii] = c[jj] = bound


# steps of covariance and mean history the metrics hold and read, and of a
# run's rows the CSV writers format, at a time
_METRIC_STEPS = 10


def _in_order_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, whatever the array's shape.

    numpy sums pairwise along an axis it walks innermost, and which axis
    that is depends on the shape; an accumulation is in order always.
    """
    return np.cumsum(x, axis=-1)[..., -1]


def _block_metrics(layout: StackLayout, covs: list[np.ndarray], means: np.ndarray,
                   truth: np.ndarray, pos: np.ndarray) -> tuple:
    """Per filter: NEES and position-error norms (runs, steps, filters), two-sigma
    position figure and covariance trace (steps, filters), variances (steps, filters, d).

    ``covs`` holds per size group the (steps, filters, k, n, n) stacks;
    ``means`` (runs, steps, filters, d), ``truth`` (runs, steps, d) and
    the positions ``pos`` are in permuted coordinates, the variances come
    back in state-label order.  Every sum but NEES's runs in index order,
    so those series do not depend on the run count.  NEES solves every run
    as one right-hand side of a factorization per step, filter and block.
    """
    err = means - truth[:, :, None, :]
    errs = (np.moveaxis(e, 0, -1) for e in layout.views(err))
    nees = sum(np.sum(e * np.linalg.solve(c, e), axis=(-3, -2)) for c, e in zip(covs, errs))
    diag = np.concatenate([np.diagonal(c, axis1=-2, axis2=-1).reshape(c.shape[:2] + (-1,))
                           for c in covs], axis=-1)
    var = diag[..., layout.position]
    return (np.moveaxis(nees, -1, 0), np.sqrt(_in_order_sum(np.square(err[..., pos]))),
            2.0 * np.sqrt(_in_order_sum(diag[..., pos]) / pos.size), _in_order_sum(var), var)


def _simulate(scenario: ScenarioConfig, run_ids, methods: tuple[str, ...]) -> TrackData:
    """The given runs of every method, all stepped in one lockstep.

    One plan holds every method's filters side by side, in method order
    (the centralized filter, or one per agent), each reading its own rows
    of the measurement vector.  Per step: one batched filter step of every
    filter, then per fusing method (a lane) its round on its own filters,
    wave by wave (``_fuse_round``), both computing each class of equal
    covariances once, as ``_class_schedule`` folds them.  Every
    ``_METRIC_STEPS`` steps, ``_block_metrics`` reads the held covariances
    and means of every filter into one set of series over all filters, and
    fusing methods' weights go to one (fusing steps, edges, blocks) array
    each; at the end each method's ``MethodTrack`` takes its columns.
    ``timings`` holds the wall seconds spent drawing the runs, in filter
    steps, fusions and metrics; ``work`` is ``_work_counts``.
    """
    methods = tuple(dict.fromkeys(methods))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    timings = dict.fromkeys(("draw", "filter", "fuse", "metrics"), 0.0)
    t0 = time.perf_counter()
    dynamics = global_transition(scenario.layout(), scenario.dt, scenario.q)
    agent_models = [agent_filter_model(scenario, a, dynamics)
                    for a in range(scenario.n_agents)]
    central = centralized_model(agent_models)
    draws = [draw_run(scenario, r, central) for r in run_ids]
    timings["draw"] = time.perf_counter() - t0
    prior_cov = _prior_covariance(scenario)
    layout = _stack_layout(prior_cov, [central, *agent_models])
    agent_rows = [rows.start for rows in _row_blocks(agent_models)]
    recorded = {"all": list(range(scenario.n_agents)), "report": [scenario.report_agent],
                "none": []}[scenario.record_estimates]
    d, steps, n_runs = layout.dim, scenario.n_steps, len(draws)
    # per method: its filters, its recorded agents, and their places in ``rec``
    models, offsets, cols, ids, recs, rec = [], [], {}, {}, {}, []
    for m in methods:
        # the centralized filter is recorded as agent -1
        group, rows, ids[m] = ([central], [0], [-1] if recorded else []) if m == "centralized" \
            else (agent_models, agent_rows, recorded)
        cols[m] = slice(len(models), len(models) + len(group))
        recs[m] = slice(len(rec), len(rec) + len(ids[m]))
        rec += [cols[m].start + max(a, 0) for a in ids[m]]
        models, offsets = models + group, offsets + rows
    plan = _filter_plan(layout, models, offsets)
    edges = np.array(scenario.edges, dtype=np.intp).reshape(-1, 2)
    # CI is block-wise CI over one block of every state
    partitions = {"CI": BlockPartition((tuple(range(layout.dim)),)),
                  "nmCI": build_partition(scenario)}
    lanes = {m: (_Pieces(layout, partitions[m]), edges + cols[m].start)
             for m in methods if m in partitions}
    waves = _fusion_waves(scenario.edges)
    fusing = _fusing(scenario)
    rounds = np.cumsum(fusing) - 1      # each fusing step's row of the weights
    omegas = {m: np.empty((np.count_nonzero(fusing), len(edges), pieces.starts.size))
              for m, (pieces, _) in lanes.items()}
    schedule = _class_schedule(plan, [*lanes.values()], waves, layout.split(prior_cov), fusing)
    n = plan.n_filters
    meas = np.stack([dr.meas for dr in draws])
    truth = np.stack([dr.truth for dr in draws])
    permuted = truth[..., layout.perm]
    means = np.repeat(np.stack([dr.prior_mean for dr in draws])[:, None, layout.perm], n, axis=1)
    views = layout.views(means)
    covs = [np.repeat(s[None], n, axis=0) for s in layout.split(prior_cov)]
    pos = layout.position[scenario.layout().position_indices()]
    block = min(_METRIC_STEPS, steps)
    cov_held = [np.empty((block,) + c.shape) for c in covs]
    means_held = np.empty((n_runs, block) + means.shape[1:])
    nees, pos_err = np.empty((2, n_runs, steps, n))
    avg2sig, cov_trace = np.empty((2, steps, n))
    est_mean, est_std = np.empty((n_runs, steps, len(rec), d)), np.empty((steps, len(rec), d))

    for k, (step_fold, lane_folds) in enumerate(schedule):
        t0 = time.perf_counter()
        gains = _covariance_step(covs, plan, step_fold)
        _mean_step(means, plan, gains, meas[:, k])
        t1 = time.perf_counter()
        for (m, (pieces, lane_edges)), folds in zip(lanes.items(), lane_folds or ()):
            _fuse_round(covs, views, lane_edges, waves, pieces, folds, omegas[m][rounds[k]])
        t2 = time.perf_counter()
        b = k % block
        for held, c in zip(cov_held, covs):
            held[b] = c
        means_held[:, b] = means
        if b + 1 == block or k + 1 == steps:
            done = slice(k - b, k + 1)
            nees[:, done], pos_err[:, done], avg2sig[done], cov_trace[done], var = _block_metrics(
                layout, [c[:b + 1] for c in cov_held], means_held[:, :b + 1], permuted[:, done],
                pos)
            est_mean[:, done] = means_held[:, :b + 1, rec][..., layout.position]
            est_std[done] = np.sqrt(var[:, rec])
        timings["filter"] += t1 - t0
        timings["fuse"] += t2 - t1
        timings["metrics"] += time.perf_counter() - t2
    # copies: numpy would sum ``summarize``'s means over a strided view in another order
    tracks = {m: MethodTrack(nees=nees[..., c], pos_err=pos_err[..., c],
                             est_mean=est_mean[:, :, recs[m]] if ids[m] else None,
                             avg2sig=avg2sig[:, c].copy(), cov_trace=cov_trace[:, c].copy(),
                             est_std=est_std[:, recs[m]] if ids[m] else None,
                             omega=omegas.get(m), est_agents=ids[m])
              for m, c in cols.items()}
    return TrackData(scenario=scenario, run_ids=list(run_ids), truth=truth, tracks=tracks,
                     timings=timings, work=_work_counts(schedule, cols, list(lanes)))


def _work_counts(schedule: list, cols: dict, lanes: list) -> dict:
    """Per method, the filter-step blocks and block intersections computed, and stood for.

    ``cols`` maps each method to its filters' slice of the plan, ``lanes``
    lists the fusing methods in lane order.  A class that filters of
    several methods share counts for the first of them in method order.
    """
    steps = [(rows // inverse.shape[1], inverse) for step, _ in schedule
             for rows, inverse in zip(step.rows, step.inverse)]
    work = {}
    for m, c in cols.items():
        fused = [f for _, folds in schedule if folds and m in lanes
                 for fold in folds[lanes.index(m)] for f in fold.fused]
        owned = sum(int(np.sum((f >= c.start) & (f < c.stop))) for f, _ in steps)
        work[m] = {"filter_blocks": {"computed": owned,
                                     "entries": sum(i[c].size for _, i in steps)},
                   "intersections": {"computed": sum(pair.size for pair, _, _ in fused),
                                     "entries": sum(i.size for _, _, i in fused)}}
    return work


def simulate_run(scenario: ScenarioConfig, run_idx: int) -> TrackData:
    """Monte-Carlo run ``run_idx`` alone, every method replaying its ``draw_run`` draws.

    This is ``run_scenario``'s lockstep with a batch of one run: its
    series and weights are those ``run_scenario`` gives the run, bitwise
    apart from roundoff in NEES.
    """
    return _simulate(scenario, [run_idx], scenario.methods)


# ---------------------------------------------------------------------------
# Monte-Carlo driver and aggregation

@dataclass(frozen=True, eq=False)
class MethodTrack:
    """One method's series over a batch of runs; the columns are its filters.

    Covariances and weights never depend on the data, so the series that
    read only them are held once, for every run.
    """

    nees: np.ndarray                 # (runs, steps, cols)
    pos_err: np.ndarray              # (runs, steps, cols) position error norm
    est_mean: np.ndarray | None      # (runs, steps, agents, d) recorded agents' means
    avg2sig: np.ndarray              # (steps, cols) two-sigma position summary, shared
    cov_trace: np.ndarray            # (steps, cols), shared
    est_std: np.ndarray | None       # (steps, agents, d) recorded agents' std, shared
    omega: np.ndarray | None         # (fusing steps, edges, blocks) weights, shared; or None
    est_agents: list                 # recorded agents' ids, -1 the centralized filter's


@dataclass
class TrackData:
    """A tracking experiment: its runs in order, and each method's ``MethodTrack``."""

    scenario: ScenarioConfig
    run_ids: list
    truth: np.ndarray                               # (runs, steps, d)
    tracks: dict                                    # method -> MethodTrack, in method order
    timings: dict = field(default_factory=dict)     # phase -> wall seconds
    work: dict = field(default_factory=dict)        # method -> _work_counts


def run_scenario(scenario: ScenarioConfig, *, methods=None, mc_runs: int | None = None,
                 seed: int | None = None) -> TrackData:
    """Run the Monte-Carlo experiment, every method stepping all runs in lockstep.

    ``methods``/``mc_runs``/``seed`` override the scenario fields.  Runs
    draw from disjoint substreams by index, and every series of a run but
    NEES, weights included, is bitwise the same whatever the run count;
    NEES solves the runs as right-hand sides of one factorization, so it
    moves in the last bits.
    """
    if seed is not None or mc_runs is not None:
        scenario = replace(scenario,
                           seed=scenario.seed if seed is None else seed,
                           mc_runs=scenario.mc_runs if mc_runs is None else mc_runs)
    return _simulate(scenario, range(scenario.mc_runs), tuple(methods or scenario.methods))


def summarize(data: TrackData) -> dict:
    """Aggregate a tracking experiment into Monte-Carlo statistics: the ``summary.json`` mapping.

    The NEES series averages the report agent across runs; the band is
    the scaled chi-square interval at ``NEES_BAND_LEVEL`` for that run
    count and the global state dimension.  RMSE and the 2-sigma summary
    are averaged over runs and agents; steady-state figures average the
    last quarter of the steps.
    """
    scn = data.scenario
    n_runs, steps, dim = data.truth.shape
    tail = max(1, steps // 4)
    band = _metrics.chi2_band(dim, n_runs, NEES_BAND_LEVEL)
    summary: dict = {"state_dim": dim, "mc_runs": n_runs,
                     "steps": steps, "level": NEES_BAND_LEVEL,
                     "report_agent": scn.report_agent,
                     "band": [band[0], band[1]], "methods": {}}
    for method, tr in data.tracks.items():
        col = 0 if method == "centralized" else scn.report_agent
        series = tr.nees[:, :, col].mean(axis=0)
        rmse_runs = np.sqrt(np.mean(tr.pos_err ** 2, axis=1))      # (runs, agents)
        in_band = float(np.mean((series >= band[0]) & (series <= band[1])))
        summary["methods"][method] = {
            "rmse_mean": float(np.mean(rmse_runs)),
            "sigma2_mean": float(np.mean(tr.avg2sig)),
            "nees_in_band_fraction": in_band,
            "nees_steady": float(series[-tail:].mean()),
            "cov_trace_steady": float(tr.cov_trace[-tail:].mean()),
        }
    return summary


# ---------------------------------------------------------------------------
# CSV blocks for ``metrics.write_csv`` (columns in metrics): per run, each part
# (a method, or the truth) in pieces of at most ``_METRIC_STEPS`` rows

ESTIMATE_CSV_COLUMNS = ["run", "step", "method", "agent", "label", "mean", "std"]

def _text(values: np.ndarray) -> np.ndarray:
    """``%.12g`` of every float64 of ``values``, as str objects in its shape.

    Each distinct value is formatted once, all of them in one ``%`` call.
    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    text."""
    bits, at = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    text = ("%.12g\n" * bits.size % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(text[:-1], dtype=object)[at].reshape(values.shape)


def _run_blocks(run_ids, parts):
    """Per run and part, the text of at most ``_METRIC_STEPS`` steps' lines, in row order.

    A part is (steps, heads, cells, shared).  Its line of step k and head h
    reads "run,k,h" and then one ``%.12g`` field per array: first each
    (runs, steps, ...) array of ``cells`` at the run, then each (steps,
    ...) array of ``shared``, whose trailing axes run over the heads.  A
    block's text is built only when it is yielded, so no more than one
    block's text is held at a time.  Its lines are one (steps, heads,
    tokens) array of str: run and step, head, each field (``_text`` of
    the block's values) with commas between, and the line end, filled by
    basic slicing and joined once."""
    layouts = []
    for steps, heads, cells, shared in parts:
        line = np.empty((len(heads), 2 * (len(cells) + len(shared)) + 2), dtype=object)
        line[:, 1], line[:, 3:-2:2], line[:, -1] = np.array(heads, dtype=object), ",", "\r\n"
        layouts.append((np.array([f"{k}," for k in steps], dtype=object), line, cells, shared))
    for r, run in enumerate(run_ids):
        for keys, line, cells, shared in layouts:
            for s in range(0, keys.size, _METRIC_STEPS):
                at = slice(s, s + _METRIC_STEPS)
                fields = [c[r, at] for c in cells] + [x[at] for x in shared]
                lines = np.empty((keys[at].size,) + line.shape, dtype=object)
                lines[:] = line
                lines[:, :, 0] = (f"{run}," + keys[at])[:, None]
                values = np.empty(lines.shape[:2] + (len(fields),))
                for i, f in enumerate(fields):
                    values[:, :, i] = f.reshape(values.shape[:2])
                lines[:, :, 2:-1:2] = _text(values)
                yield "".join(lines.ravel().tolist())


def track_blocks(data: TrackData):
    steps, agents = range(data.scenario.n_steps), range(data.scenario.n_agents)
    yield from _run_blocks(data.run_ids, (
        (steps, [f"{m},{a}," for a in ([-1] if m == "centralized" else agents)],
         (tr.nees, tr.pos_err), (tr.avg2sig, tr.cov_trace))
        for m, tr in data.tracks.items()))


def omega_blocks(data: TrackData):
    scn = data.scenario
    yield from _run_blocks(data.run_ids, (
        (np.flatnonzero(_fusing(scn)).tolist(),
         [f"{m},{i}-{j},{b}," for i, j in scn.edges for b in range(tr.omega.shape[2])],
         (), (tr.omega,))
        for m, tr in data.tracks.items() if tr.omega is not None))


def truth_blocks(data: TrackData):
    heads = [f"{lab}," for lab in data.scenario.layout().labels()]
    yield from _run_blocks(data.run_ids, [(range(data.scenario.n_steps), heads, (data.truth,), ())])


def estimate_blocks(data: TrackData):
    labels = data.scenario.layout().labels()
    yield from _run_blocks(data.run_ids, (
        (range(data.scenario.n_steps),
         [f"{m},{aid},{lab}," for aid in tr.est_agents for lab in labels],
         (tr.est_mean,), (tr.est_std,))
        for m, tr in data.tracks.items() if tr.est_mean is not None))
