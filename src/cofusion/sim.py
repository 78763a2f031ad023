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
Monte-Carlo run.  So each method steps all runs in lockstep.  One
covariance pass per scenario does the filter steps and the fusions
through ``fusion._nmci``, the block-wise core behind
``ci_fuse``/``nmci_fuse`` (CI is its one-block case), and applies their
gains to a (runs, filters, d) array of means; NEES solves every run
against one factorization per step and block.  A round's edges go in
waves: each wave is one ``_nmci`` call over edges that share no agent,
and each edge waits only for the earlier edges that share one of its
agents, so every agent sees the inputs it would see edge by edge.
``_nmci`` fuses the pieces where stack blocks meet partition blocks and
reads nothing else, so the tracker has no strict mode and no failure
path: a covariance holds entries only inside its stack blocks, and
whether the partition leaves some of them outside every piece
(``_Pieces.off``) is a fact about the scenario's layout, not about the
numbers.  With ``group_axes`` and diagonal noise there are none; with
``group_target_bias`` the target-bias coupling is left out, as lenient
``nmci_fuse`` drops it.

That pass exploits the scenario's independence structure.  The
connected components of the union sparsity pattern of P0, F, Q and each
filter's H^T|R|H are blocks that no filter step, CI or block-wise CI
ever couples, so every covariance is exactly block-diagonal over them.
Each filter's covariance is carried as stacks of its diagonal blocks,
one (k, n, n) stack per block size (``core.StackLayout``), and means,
truth and errors live in the matching permuted coordinates; records
return to state-label order.  On both presets the blocks are the
(group, axis) pairs.  Every numpy call covers all blocks of a size, for
all filters in the filter step.  A scenario whose structure couples
every state runs as one block through the same code, and
``local_filter_step``, ``ci_fuse`` and ``nmci_fuse`` treat a dense
covariance as a stack of one block.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from .core import (
    BlockPartition,
    ConfigError,
    FusionError,
    GaussianEstimate,
    StackLayout,
    as_int,
    as_name,
    as_real,
    as_seed,
    check_spd,
    check_spd_stacks,
    make_substream,
    parsing,
    symmetrize,
)
from .fusion import _fused_mean, _nmci, _Pieces, ci_fuse, nmci_fuse
from .sdp import robust_fuse  # noqa: F401  (perfbench/tracing.py wraps sim.robust_fuse)
from . import metrics as _metrics

SCENARIO_SCHEMA = "cofusion-scenario-v1"
METHODS = ("centralized", "CI", "nmCI", "none")
PARTITION_SCHEMES = ("group_target_bias", "group_axes")
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


def _phi2(dt: float) -> np.ndarray:
    return np.array([[1.0, dt], [0.0, 1.0]])


def _q2(dt: float, q: float) -> np.ndarray:
    dt = np.float64(dt)     # a huge dt overflows to inf instead of raising
    return q * np.array([[dt ** 3 / 3.0, dt ** 2 / 2.0], [dt ** 2 / 2.0, dt]])


def target_transition(dt: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-target (4x4) transition and process noise, x and y decoupled."""
    phi = np.zeros((4, 4))
    qn = np.zeros((4, 4))
    p2, n2 = _phi2(dt), _q2(dt, q)
    phi[:2, :2] = p2
    phi[2:, 2:] = p2
    qn[:2, :2] = n2
    qn[2:, 2:] = n2
    return phi, qn


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
        edges = tuple((as_int(i, "edge end"), as_int(j, "edge end")) for i, j in self.edges)
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
            if len(self.assignments) != n_agents:
                raise ConfigError("assignments must list targets for every agent")
            assigned = tuple(tuple(as_int(t, "assigned target") for t in ts)
                             for ts in self.assignments)
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
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for m in self.methods:
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
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "r_target",
                           tuple(tuple(float(v) for v in row) for row in self.r_target))
        object.__setattr__(self, "r_landmark",
                           tuple(tuple(float(v) for v in row) for row in self.r_landmark))
        if self.agent_r_target is not None:
            object.__setattr__(
                self, "agent_r_target",
                tuple(tuple(tuple(float(v) for v in row) for row in m)
                      for m in self.agent_r_target))

    @property
    def n_agents(self) -> int:
        return sum(len(g.agents) for g in self.groups)

    @property
    def n_targets(self) -> int:
        return sum(len(g.targets) for g in self.groups)

    def layout(self) -> StateLayout:
        return StateLayout(self.n_targets, self.n_agents)

    def to_dict(self) -> dict:
        d = {"schema": SCENARIO_SCHEMA}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if f.name == "groups":
                v = [{"agents": list(g.agents), "targets": list(g.targets)} for g in v]
            elif f.name == "edges":
                v = [list(e) for e in v]
            elif f.name == "assignments":
                v = [list(t) for t in v]
            elif f.name in ("r_target", "r_landmark"):
                v = [list(row) for row in v]
            elif f.name == "agent_r_target" and v is not None:
                v = [[list(row) for row in m] for m in v]
            elif f.name == "methods":
                v = list(v)
            d[f.name] = v
        return d

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
            if "edges" in kw:
                kw["edges"] = tuple(tuple(e) for e in kw["edges"])
            if kw.get("assignments") is not None:
                kw["assignments"] = tuple(tuple(t) for t in kw["assignments"])
            if "methods" in kw:
                kw["methods"] = tuple(kw["methods"])
            return cls(**kw)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(d)


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


def _covariance_step(covs: list[np.ndarray], plan: _FilterPlan) -> list[np.ndarray]:
    """Covariance half of ``local_filter_step`` for every filter of a plan at once.

    ``covs`` holds, per size group, the filters' (filters, k, n, n) block
    stacks, and is updated in place: they are predicted in one batched
    call per group, and only the blocks a filter's H observes are updated,
    in one batched call per update group.  Returns the Kalman gain of each
    update group, (u, n, m).
    Neither depends on the mean or the measurement, so one call serves
    every run that shares the covariances.
    """
    for g, (f, q) in enumerate(zip(plan.f, plan.q)):
        covs[g] = symmetrize(f @ covs[g] @ _t(f) + q)
    gains = []
    for up in plan.updates:
        cov = covs[up.group][up.filters, up.blocks]
        s = up.h @ cov @ _t(up.h) + up.r
        k = _t(np.linalg.solve(_t(s), _t(cov @ _t(up.h))))
        ikh = np.eye(cov.shape[-1]) - k @ up.h
        covs[up.group][up.filters, up.blocks] = symmetrize(ikh @ cov @ _t(ikh)
                                                           + k @ up.r @ _t(k))
        gains.append(k)
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
    gains = _covariance_step(covs, plan)
    means = belief.mean[None, None].copy()
    _mean_step(means, plan, gains, np.asarray(z, dtype=float)[None])
    return GaussianEstimate(means[0, 0], covs[0][0, 0], belief.labels)


# ---------------------------------------------------------------------------
# partitions

def build_partition(scenario: ScenarioConfig, scheme: str | None = None) -> BlockPartition:
    """Fusion partition over the global state.

    ``group_target_bias`` groups each agent-group's target states and,
    separately, its agents' biases (the coupling an agent's measurements
    create between the two lies outside every block, and block-wise
    fusion leaves it out).  ``group_axes`` groups each agent-group's
    x-axis states and y-axis states; with diagonal noise matrices those
    blocks stay exactly uncorrelated, so no coupling is ever left out.
    """
    scheme = scheme or scenario.partition_scheme
    layout = scenario.layout()
    blocks: list[tuple[int, ...]] = []
    if scheme == "group_target_bias":
        for g in scenario.groups:
            tblk = [i for t in g.targets for i in layout.target_indices(t)]
            bblk = [i for a in g.agents for i in layout.bias_indices(a)]
            blocks += [tuple(tblk), tuple(bblk)]
    elif scheme == "group_axes":
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
    else:
        raise ConfigError(f"unknown partition scheme {scheme!r}")
    return BlockPartition(tuple(blocks))


# ---------------------------------------------------------------------------
# fusion round

def _weight_records(omegas, method: str, step: int, i: int, j: int) -> list[dict]:
    """One weight record per partition block of an edge; CI has one block."""
    return [{"step": step, "edge": f"{i}-{j}", "block": blk,
             "omega": float(w), "method": method}
            for blk, w in enumerate(omegas)]


def fusion_round(beliefs: list[GaussianEstimate], edges, method: str, step: int,
                 partition: BlockPartition) -> tuple[list[GaussianEstimate], list[dict]]:
    """Fuse along every edge in order; both endpoints adopt the result.

    Edges are processed sequentially in the given order, so later edges
    see the outcome of earlier ones within the same round.  This is the
    per-estimate reference of the tracker's round, which fuses edges that
    share no agent with any pending earlier edge together and gets the
    same results (see ``_fuse_round``).  ``partition`` is the block
    structure every agent shares; only the block-wise method reads it,
    through lenient ``nmci_fuse``, since the tracker's core leaves the
    entries outside the blocks out.  Weight values are returned as one
    record per edge (per block for the block-wise method).  A failure on
    an edge aborts with the edge id.
    """
    if method == "none":
        return list(beliefs), []
    if method not in ("CI", "nmCI"):
        raise ConfigError(f"fusion_round cannot run method {method!r}")
    out = list(beliefs)
    records: list[dict] = []
    for i, j in edges:
        try:
            if method == "CI":
                res = ci_fuse(out[i], out[j])
            else:
                res = nmci_fuse(out[i], out[j], partition, strict=False)
        except FusionError as exc:
            raise FusionError(f"fusion failed on edge ({i}, {j}) at step {step}: {exc}") from exc
        out[i] = out[j] = GaussianEstimate(res.fused_mean, res.bound, out[i].labels)
        records += _weight_records(res.omega, method, step, i, j)
    return out, records


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
    perturbation from "prior", so every method sees the same run.
    ``model`` is the scenario's ``centralized_model``: each step's
    measurement is its H times the true state plus noise with covariance
    R, the standard normals drawn in one call, in row order step by step.
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

    truth = np.empty((steps, d))
    phi, qn = target_transition(scenario.dt, scenario.q)
    lq = np.linalg.cholesky(qn) if scenario.q > 0 else None
    xk = x
    for k in range(steps):
        nxt = xk.copy()
        for t in range(n_t):
            ti = layout.target_indices(t)
            nxt[ti] = phi @ xk[ti]
            if lq is not None:
                nxt[ti] += lq @ rng_truth.standard_normal(4)
        xk = nxt
        truth[k] = xk
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


def _fuse_round(covs: list[np.ndarray], views: list[np.ndarray], edges: np.ndarray,
                waves: list[np.ndarray], pieces: _Pieces) -> np.ndarray:
    """Fuse one round's (edges, 2) agent pairs wave by wave, in place; (edges, blocks) weights.

    ``covs`` holds per size group the (filters, k, n, n) stacks and
    ``views`` the (runs, filters, k, n) means.  Each wave is one
    ``_nmci`` call over its edges.
    """
    omegas = np.empty((len(edges), pieces.starts.size))
    for wave in waves:
        ii, jj = edges[wave, 0], edges[wave, 1]
        ws, gains_a, bounds = _nmci([c[ii] for c in covs], [c[jj] for c in covs], pieces)
        for view, c, gain_a, bound in zip(views, covs, gains_a, bounds):
            view[:, ii] = view[:, jj] = _fused_mean(gain_a, view[:, ii], view[:, jj])
            c[ii] = c[jj] = bound
        omegas[wave] = ws
    return omegas


def _lockstep(scenario: ScenarioConfig, method: str, plan: _FilterPlan,
              pieces: _Pieces | None, waves: list[np.ndarray], meas: np.ndarray,
              truth: np.ndarray, prior_mean: np.ndarray, prior_cov: np.ndarray,
              timings: dict) -> list[dict]:
    """Step one method through a batch of runs; every method takes this path.

    ``plan`` holds the method's filters: the centralized one, or one per
    agent.  ``pieces`` places the method's fusion partition on the plan's
    layout (one block for CI), or is None for a method that never fuses.
    ``waves`` is ``_fusion_waves`` of the scenario's edges.  ``meas``
    (runs, steps, rows), ``truth`` (runs, steps, d) and ``prior_mean``
    (runs, d) stack the runs' draws.  The runs share every covariance,
    since no fusion rule of the tracker draws anything at random.
    Covariances are stacks of the plan layout's diagonal blocks, and
    means, truth and errors live in its permuted coordinates.  Per step:
    one batched filter step for all filters, then one block-wise
    intersection per wave, batched over its edges, whose gains move the
    (runs, filters, d) means; NEES solves all runs against one
    factorization per block.  Fusing wave by wave gives the results and
    weights of fusing edge by edge in configured order (see
    ``_fuse_round``), and weights are recorded in that order.  There is
    no strict mode: ``_nmci`` fuses the pieces and leaves the entries
    outside them (``pieces.off``, empty for an exact partition) out.  The wall
    time of the filter steps, fusions and metrics is added to ``timings``.
    Returns one record per run, in state-label order; the covariance-only
    entries (``avg2sig``, ``cov_trace``, ``est_std``, ``omega``) are
    shared between them.
    """
    layout = plan.layout
    d, steps = layout.dim, scenario.n_steps
    pos_idx = scenario.layout().position_indices()
    pos = layout.position[pos_idx]
    if method == "centralized":
        rec_ids = [-1] if scenario.record_estimates != "none" else []
        rec_cols = [0] * len(rec_ids)
    else:
        rec_ids = {"all": list(range(scenario.n_agents)),
                   "report": [scenario.report_agent],
                   "none": []}[scenario.record_estimates]
        rec_cols = rec_ids
    n_runs, cols = len(truth), plan.n_filters
    edges = np.array(scenario.edges, dtype=np.intp).reshape(-1, 2)

    truth = truth[..., layout.perm]
    means = np.repeat(prior_mean[:, None, layout.perm], cols, axis=1)
    views = layout.views(means)
    covs = [np.repeat(s[None], cols, axis=0) for s in layout.split(prior_cov)]

    nees = np.empty((n_runs, steps, cols))
    pos_err = np.empty((n_runs, steps, cols))
    avg2sig = np.empty((steps, cols))
    cov_trace = np.empty((steps, cols))
    est_mean = np.empty((n_runs, steps, len(rec_cols), d)) if rec_cols else None
    est_std = np.empty((steps, len(rec_cols), d)) if rec_cols else None
    records: list[dict] = []

    for k in range(steps):
        t0 = time.perf_counter()
        gains = _covariance_step(covs, plan)
        # an estimate runs this check when built; a filter that loses
        # definiteness signals a misconfigured scenario
        check_spd_stacks(covs, name="covariance")
        _mean_step(means, plan, gains, meas[:, k])
        t1 = time.perf_counter()
        if pieces is not None and (k + 1) > scenario.fusion_start \
                and (k + 1 - scenario.fusion_start) % scenario.fusion_every == 0:
            omegas = _fuse_round(covs, views, edges, waves, pieces)
            for (i, j), w in zip(scenario.edges, omegas):
                records += _weight_records(w, method, k, i, j)
        t2 = time.perf_counter()
        err = means - truth[:, k, None, :]
        pos_err[:, k] = np.linalg.norm(err[:, :, pos], axis=2)
        # one factorization of each block serves every run
        errs = (np.moveaxis(e, 0, -1) for e in layout.views(err))
        nees[:, k] = sum(np.sum(e * np.linalg.solve(c, e), axis=(1, 2))
                         for c, e in zip(covs, errs)).T
        var = np.concatenate([np.diagonal(c, axis1=-2, axis2=-1).reshape(cols, -1)
                              for c in covs], axis=1)[:, layout.position]
        avg2sig[k] = 2.0 * np.sqrt(np.mean(var[:, pos_idx], axis=1))
        cov_trace[k] = np.sum(var, axis=1)
        if rec_cols:
            est_mean[:, k] = means[:, rec_cols][..., layout.position]
            est_std[k] = np.sqrt(var[rec_cols])
        timings["filter"] += t1 - t0
        timings["fuse"] += t2 - t1
        timings["metrics"] += time.perf_counter() - t2

    return [{"nees": nees[r], "pos_err": pos_err[r], "avg2sig": avg2sig,
             "cov_trace": cov_trace, "omega": records,
             "est_mean": None if est_mean is None else est_mean[r],
             "est_std": est_std, "est_agents": rec_ids}
            for r in range(n_runs)]


def _simulate(scenario: ScenarioConfig, run_ids, methods) -> tuple[list[dict], dict]:
    """Records of the given runs, every method stepping them in lockstep.

    Also returns the wall seconds spent drawing the runs and, summed over
    methods, in filter steps, fusions and metrics.
    """
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
    plans = {"central": _filter_plan(layout, [central], [0]),
             "agents": _filter_plan(layout, agent_models,
                                    [rows.start for rows in _row_blocks(agent_models)])}
    shared = dict(meas=np.stack([dr.meas for dr in draws]),
                  truth=np.stack([dr.truth for dr in draws]),
                  prior_mean=np.stack([dr.prior_mean for dr in draws]),
                  prior_cov=prior_cov, waves=_fusion_waves(scenario.edges), timings=timings)
    # CI is block-wise CI over one block of every state
    partitions = {"CI": BlockPartition((tuple(range(layout.dim)),)),
                  "nmCI": build_partition(scenario)}
    out = [{"truth": dr.truth, "run": r, "methods": {}} for r, dr in zip(run_ids, draws)]
    for method in methods:
        plan = plans["central" if method == "centralized" else "agents"]
        pieces = _Pieces(layout, partitions[method]) if method in partitions else None
        for o, rec in zip(out, _lockstep(scenario, method, plan, pieces, **shared)):
            o["methods"][method] = rec
    return out, timings


def simulate_run(scenario: ScenarioConfig, run_idx: int,
                 methods: tuple[str, ...] | None = None) -> dict:
    """Simulate one Monte-Carlo run for every requested method.

    Truth, measurements, and prior perturbations come from ``draw_run``
    and are replayed identically for each method.  This is
    ``run_scenario``'s lockstep with a batch of one run; its record is
    the one ``run_scenario`` gives the same run, bitwise apart from
    roundoff in NEES.
    Returns per-method arrays of shape (steps, agents) for NEES,
    position error, 2-sigma summary, and covariance trace, plus
    recorded estimate trajectories and weight logs.
    """
    return _simulate(scenario, [run_idx], tuple(methods or scenario.methods))[0][0]


# ---------------------------------------------------------------------------
# Monte-Carlo driver and aggregation

@dataclass
class TrackData:
    scenario: ScenarioConfig
    methods: tuple[str, ...]
    state_dim: int
    runs: list[dict]
    timings: dict = field(default_factory=dict)   # phase -> wall seconds


def run_scenario(scenario: ScenarioConfig, *, methods=None, mc_runs: int | None = None,
                 seed: int | None = None) -> TrackData:
    """Run the Monte-Carlo experiment, every method stepping all runs in lockstep.

    ``methods``/``mc_runs``/``seed`` override the scenario fields.  Runs
    draw from disjoint substreams by index, and a run's record does not
    depend on the run count (NEES up to roundoff); records come in run
    order.
    """
    if seed is not None or mc_runs is not None:
        scenario = replace(scenario,
                           seed=scenario.seed if seed is None else seed,
                           mc_runs=scenario.mc_runs if mc_runs is None else mc_runs)
    methods = tuple(methods or scenario.methods)
    runs, timings = _simulate(scenario, range(scenario.mc_runs), methods)
    return TrackData(scenario=scenario, methods=methods, state_dim=scenario.layout().dim,
                     runs=runs, timings=timings)


@dataclass(frozen=True)
class TrackSummary:
    """What ``summarize`` reports about a tracking experiment."""

    summary: dict        # the mapping written to summary.json
    nees_series: dict    # method -> (steps,) report-agent NEES averaged over runs


def summarize(data: TrackData, level: float = 0.95) -> TrackSummary:
    """Aggregate a tracking experiment into Monte-Carlo statistics.

    The NEES series averages the report agent across runs; the band is
    the scaled chi-square interval for that run count and the global
    state dimension.  RMSE and the 2-sigma summary are averaged over
    runs and agents; steady-state figures average the last quarter of
    the steps.
    """
    scn = data.scenario
    n_runs = len(data.runs)
    steps = scn.n_steps
    tail = max(1, steps // 4)
    band = _metrics.chi2_band(data.state_dim, n_runs, level)
    nees_series: dict = {}
    summary: dict = {"state_dim": data.state_dim, "mc_runs": n_runs,
                     "steps": steps, "level": level,
                     "report_agent": scn.report_agent,
                     "band": [band[0], band[1]], "methods": {}}
    for method in data.methods:
        col = 0 if method == "centralized" else scn.report_agent
        nees_runs = np.stack([r["methods"][method]["nees"][:, col] for r in data.runs])
        series = nees_runs.mean(axis=0)
        nees_series[method] = series
        pe = np.stack([r["methods"][method]["pos_err"] for r in data.runs])
        rmse_runs = np.sqrt(np.mean(pe ** 2, axis=1))      # (runs, agents)
        s2 = np.stack([r["methods"][method]["avg2sig"] for r in data.runs])
        tr = np.stack([r["methods"][method]["cov_trace"] for r in data.runs])
        in_band = float(np.mean((series >= band[0]) & (series <= band[1])))
        summary["methods"][method] = {
            "rmse_mean": float(np.mean(rmse_runs)),
            "sigma2_mean": float(np.mean(s2)),
            "nees_in_band_fraction": in_band,
            "nees_steady": float(series[-tail:].mean()),
            "cov_trace_steady": float(tr[:, -tail:, :].mean()),
        }
    return TrackSummary(summary=summary, nees_series=nees_series)


# ---------------------------------------------------------------------------
# CSV blocks for ``metrics.write_csv`` (columns in metrics): one template per
# (run, method), or per run for the truth, filled from the record arrays

ESTIMATE_CSV_COLUMNS = ["run", "step", "method", "agent", "label", "mean", "std"]

def track_blocks(data: TrackData):
    agents = {m: [-1] if m == "centralized" else range(data.scenario.n_agents)
              for m in data.methods}
    tails = {m: [f"{k},{m},{a},%.12g,%.12g,%.12g,%.12g\r\n"
                 for k in range(data.scenario.n_steps) for a in agents[m]]
             for m in data.methods}
    for r in data.runs:
        for m in data.methods:
            rec = r["methods"][m]
            cells = np.stack([rec["nees"], rec["pos_err"], rec["avg2sig"],
                              rec["cov_trace"]], axis=2)
            yield _metrics.lead_lines(r["run"], tails[m]), tuple(cells.ravel().tolist())


def omega_blocks(data: TrackData):
    for r in data.runs:
        for m in data.methods:
            recs = r["methods"][m]["omega"]
            tails = [f"{w['step']},{m},{w['edge']},{w['block']},%.12g\r\n" for w in recs]
            yield _metrics.lead_lines(r["run"], tails), tuple(w["omega"] for w in recs)


def truth_blocks(data: TrackData):
    labels = data.scenario.layout().labels()
    tails = [f"{k},{lab},%.12g\r\n" for k in range(data.scenario.n_steps) for lab in labels]
    for r in data.runs:
        yield _metrics.lead_lines(r["run"], tails), tuple(r["truth"].ravel().tolist())


def estimate_blocks(data: TrackData):
    labels = data.scenario.layout().labels()
    steps = range(data.scenario.n_steps)
    tails = {}
    for r in data.runs:
        for m in data.methods:
            rec = r["methods"][m]
            if rec["est_mean"] is None:
                continue
            if m not in tails:
                tails[m] = [f"{k},{m},{aid},{lab},%.12g,%.12g\r\n"
                            for k in steps for aid in rec["est_agents"] for lab in labels]
            cells = np.stack([rec["est_mean"], rec["est_std"]], axis=3)
            yield _metrics.lead_lines(r["run"], tails[m]), tuple(cells.ravel().tolist())
