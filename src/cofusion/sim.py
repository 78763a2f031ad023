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
A run's measurements are one (steps, rows) array in the centralized
filter's row order: agents in id order, each agent's block in the row
order of its own filter's H.  The centralized filter reads every row,
and each agent's filter reads its own contiguous block.

Covariances, Kalman gains, intersection weights and fusion gains never
depend on the data: the Riccati recursion runs the same in every
Monte-Carlo run.  So each method steps all runs in lockstep.  One
covariance pass per scenario does one filter update per agent and one
fusion per edge, and applies their gains to a (runs, agents, d) array of
means; NEES solves every run against one factorization per step and
agent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from .core import (
    BlockPartition,
    ConfigError,
    FusionError,
    GaussianEstimate,
    _derived,
    check_spd,
    make_substream,
    symmetrize,
)
from .fusion import ci_fuse, nmci_fuse
from .sdp import robust_fuse  # noqa: F401  (perfbench/tracing.py wraps sim.robust_fuse)
from . import metrics as _metrics

SCENARIO_SCHEMA = "cofusion-scenario-v1"
METHODS = ("centralized", "CI", "nmCI", "none")
PARTITION_SCHEMES = ("group_target_bias", "group_axes")


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


def propagate_truth(state, dt: float, q: float, rng: np.random.Generator) -> np.ndarray:
    """One nearly-constant-velocity step of a single 4-dim target state."""
    state = np.asarray(state, dtype=float).reshape(4)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    phi, qn = target_transition(dt, q)
    out = phi @ state
    if q > 0:
        out = out + np.linalg.cholesky(qn) @ rng.standard_normal(4)
    return out


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
        groups = tuple(GroupSpec(tuple(int(a) for a in g.agents),
                                 tuple(int(t) for t in g.targets))
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
        edges = tuple((int(i), int(j)) for i, j in self.edges)
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
            assigned = tuple(tuple(int(t) for t in ts) for ts in self.assignments)
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
        if not (0 <= int(self.report_agent) < n_agents):
            raise ConfigError("report_agent out of range")
        if self.record_estimates not in ("all", "report", "none"):
            raise ConfigError("record_estimates must be all, report, or none")
        if self.dt <= 0 or self.q < 0 or self.n_steps < 1 or self.mc_runs < 1 \
                or self.fusion_every < 1 or self.bias_range < 0 \
                or self.fusion_start < 0:
            raise ConfigError("dt > 0, q >= 0, n_steps/mc_runs/fusion_every >= 1, "
                              "bias_range >= 0, fusion_start >= 0 required")
        if min(self.prior_position_var, self.prior_velocity_var, self.prior_bias_var) <= 0:
            raise ConfigError("prior variances must be positive")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "assignments", assigned)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "report_agent", int(self.report_agent))
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
        try:
            return cls(**kw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

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
# runtime agent records

@dataclass(frozen=True)
class AgentConfig:
    """One realized agent: identity, bias truth and sensing."""

    id: int
    bias: np.ndarray
    assigned_targets: tuple[int, ...]
    meas_noise_target: np.ndarray
    meas_noise_landmark: np.ndarray


@dataclass(frozen=True)
class FilterModel:
    """Precomputed matrices for one filter: dynamics and observation."""

    f: np.ndarray
    q: np.ndarray
    h: np.ndarray
    r: np.ndarray


def noise_factors(agent: AgentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of an agent's target and landmark noise, for ``measure``."""
    return (np.linalg.cholesky(agent.meas_noise_target),
            np.linalg.cholesky(agent.meas_noise_landmark))


def measure(agent: AgentConfig, truth, layout: StateLayout,
            rng: np.random.Generator, factors) -> np.ndarray:
    """Biased position measurement of each assigned target, then a landmark.

    The vector is in the row order of the agent's ``agent_filter_model``
    H.  ``factors`` is ``noise_factors(agent)``; the noise is fixed per
    agent, so callers factor it once.
    """
    truth = np.asarray(truth, dtype=float)
    la, lb = factors
    z = []
    for t in agent.assigned_targets:
        ti = layout.target_indices(t)
        z.append(truth[[ti[0], ti[2]]] + agent.bias + la @ rng.standard_normal(2))
    z.append(agent.bias + lb @ rng.standard_normal(2))
    return np.concatenate(z)


def agent_filter_model(agent: AgentConfig, layout: StateLayout,
                       dt: float, q: float) -> FilterModel:
    """Observation and dynamics matrices for one agent's local filter."""
    f, qn = global_transition(layout, dt, q)
    rows = 2 * (len(agent.assigned_targets) + 1)
    h = np.zeros((rows, layout.dim))
    r = np.zeros((rows, rows))
    row = 0
    bi = layout.bias_indices(agent.id)
    for t in agent.assigned_targets:
        ti = layout.target_indices(t)
        h[row, ti[0]] = 1.0
        h[row, bi[0]] = 1.0
        h[row + 1, ti[2]] = 1.0
        h[row + 1, bi[1]] = 1.0
        r[row:row + 2, row:row + 2] = agent.meas_noise_target
        row += 2
    h[row, bi[0]] = 1.0
    h[row + 1, bi[1]] = 1.0
    r[row:row + 2, row:row + 2] = agent.meas_noise_landmark
    return FilterModel(f=f, q=qn, h=h, r=r)


def _covariance_step(cov: np.ndarray, model: FilterModel) -> tuple[np.ndarray, np.ndarray]:
    """Covariance half of ``local_filter_step``: (updated covariance, Kalman gain).

    Neither depends on the mean or the measurement, so one call serves
    every run that shares the covariance.
    """
    cov = symmetrize(model.f @ cov @ model.f.T + model.q)
    s = model.h @ cov @ model.h.T + model.r
    k = np.linalg.solve(s.T, (cov @ model.h.T).T).T
    ikh = np.eye(cov.shape[0]) - k @ model.h
    return symmetrize(ikh @ cov @ ikh.T + k @ model.r @ k.T), k


def local_filter_step(belief: GaussianEstimate, model: FilterModel,
                      z: np.ndarray) -> GaussianEstimate:
    """Linear predict + measurement update (Joseph form) on the global state.

    States the observation matrix does not touch are only predicted.  A
    covariance that comes out non-SPD fails construction, which signals
    a misconfigured scenario rather than being patched over.
    """
    cov, k = _covariance_step(belief.covariance, model)
    mean = model.f @ belief.mean
    mean = mean + k @ (z - model.h @ mean)
    return GaussianEstimate(mean, cov, belief.labels)


# ---------------------------------------------------------------------------
# partitions

def build_partition(scenario: ScenarioConfig, scheme: str | None = None) -> BlockPartition:
    """Fusion partition over the global state.

    ``group_target_bias`` groups each agent-group's target states and,
    separately, its agents' biases (the coupling an agent's measurements
    create between the two is dropped at fusion time, so this scheme
    runs block-wise fusion in lenient mode).  ``group_axes`` groups each
    agent-group's x-axis states and y-axis states; with diagonal noise
    matrices those blocks stay exactly uncorrelated, so no coupling is
    ever dropped.
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


def partition_is_exact(scenario: ScenarioConfig, scheme: str | None = None) -> bool:
    """Whether belief covariances are exactly block-diagonal under the scheme.

    True for ``group_axes`` when every noise matrix an agent measures
    with is diagonal: its own target noise (``agent_r_target[a]`` when
    set, else ``r_target``) and ``r_landmark``.  Nothing in the
    linear-Gaussian pipeline then couples x- and y-axis states, so the
    off-block entries are zero to the last bit and strict block-wise
    fusion applies.
    """
    scheme = scheme or scenario.partition_scheme
    if scheme != "group_axes":
        return False
    targets = scenario.agent_r_target or (scenario.r_target,)
    return all(m[0][1] == 0.0 and m[1][0] == 0.0
               for m in (*targets, scenario.r_landmark))


# ---------------------------------------------------------------------------
# fusion round

def _fuse_edges(beliefs: list[GaussianEstimate], edges, method: str, step: int,
                partition: BlockPartition, *, strict: bool):
    """Fuse along every edge in order, replacing both endpoints in ``beliefs``.

    Yields (i, j, result) after each edge, so a caller can apply the
    gains to means it keeps elsewhere.
    """
    for i, j in edges:
        a, b = beliefs[i], beliefs[j]
        try:
            if method == "CI":
                res = ci_fuse(a, b)
            else:
                res = nmci_fuse(a, b, partition, strict=strict)
        except FusionError as exc:
            raise FusionError(
                f"fusion failed on edge ({i}, {j}) at step {step}: {exc}") from exc
        # both rules' bounds are SPD by construction: the inverse of a
        # positive information combination
        fused = _derived(GaussianEstimate, mean=res.fused_mean, covariance=res.bound,
                         labels=a.labels)
        beliefs[i] = fused
        beliefs[j] = fused
        yield i, j, res


def _weight_records(res, method: str, step: int, i: int, j: int) -> list[dict]:
    """One weight record per edge, or per block for the block-wise method."""
    return [{"step": step, "edge": f"{i}-{j}", "block": blk,
             "omega": float(w), "method": method}
            for blk, w in enumerate(res.omega)]


def fusion_round(beliefs: list[GaussianEstimate], edges, method: str, step: int,
                 partition: BlockPartition, *,
                 strict: bool = False) -> tuple[list[GaussianEstimate], list[dict]]:
    """Fuse along every edge in order; both endpoints adopt the result.

    Edges are processed sequentially in the given order, so later edges
    see the outcome of earlier ones within the same round.  ``partition``
    is the block structure every agent shares; only the block-wise
    method reads it.  Weight values are returned as one record per edge
    (per block for the block-wise method).  A failure on an edge aborts
    with the edge id.
    """
    if method == "none":
        return list(beliefs), []
    if method not in ("CI", "nmCI"):
        raise ConfigError(f"fusion_round cannot run method {method!r}")
    out = list(beliefs)
    records: list[dict] = []
    for i, j, res in _fuse_edges(out, edges, method, step, partition, strict=strict):
        records += _weight_records(res, method, step, i, j)
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


def _make_agents(scenario: ScenarioConfig, biases: np.ndarray) -> list[AgentConfig]:
    rl = np.asarray(scenario.r_landmark, dtype=float)

    def rt(a: int) -> np.ndarray:
        if scenario.agent_r_target is not None:
            return np.asarray(scenario.agent_r_target[a], dtype=float)
        return np.asarray(scenario.r_target, dtype=float)

    return [AgentConfig(id=a, bias=biases[a].copy(),
                        assigned_targets=scenario.assignments[a],
                        meas_noise_target=rt(a), meas_noise_landmark=rl)
            for a in range(scenario.n_agents)]


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

    agents: list[AgentConfig]      # carries the run's bias truths
    truth: np.ndarray              # (steps, d) true state after each step
    meas: np.ndarray               # (steps, rows) centralized row order
    prior_mean: np.ndarray         # (d,) shared prior mean of every filter


def draw_run(scenario: ScenarioConfig, run_idx: int) -> RunDraws:
    """Draw one run's truth, measurements and prior from its substreams.

    Biases, initial target states and the truth steps come from the
    run's "truth" substream, measurements from "meas" and the prior
    perturbation from "prior", so every method sees the same run.
    """
    layout = scenario.layout()
    d = layout.dim
    n_a, n_t, steps = scenario.n_agents, scenario.n_targets, scenario.n_steps

    rng_truth = make_substream(scenario.seed, "truth", run_idx)
    rng_meas = make_substream(scenario.seed, "meas", run_idx)
    rng_prior = make_substream(scenario.seed, "prior", run_idx)

    biases = rng_truth.uniform(-scenario.bias_range, scenario.bias_range, size=(n_a, 2))
    agents = _make_agents(scenario, biases)

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
    meas = []
    factors = [noise_factors(a) for a in agents]
    xk = x
    for k in range(steps):
        nxt = xk.copy()
        for t in range(n_t):
            ti = layout.target_indices(t)
            nxt[ti] = propagate_truth(xk[ti], scenario.dt, scenario.q, rng_truth)
        xk = nxt
        truth[k] = xk
        meas.append(np.concatenate([measure(a, xk, layout, rng_meas, f)
                                    for a, f in zip(agents, factors)]))

    # every agent and the centralized baseline start from one shared
    # prior belief; a common prior keeps fusion of untouched states a
    # no-op instead of an uncredited averaging of independent errors
    l0 = np.linalg.cholesky(_prior_covariance(scenario))
    prior_mean = x + l0 @ rng_prior.standard_normal(d)
    return RunDraws(agents=agents, truth=truth, meas=np.stack(meas), prior_mean=prior_mean)


def _per_run(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x[r] for every row r of x, one matrix-vector product per run.

    Each product is the one ``local_filter_step`` or a fusion rule
    computes for a single mean, so the batched means are bitwise those
    of one run at a time.
    """
    return (m @ x[:, :, None])[:, :, 0]


def _lockstep(scenario: ScenarioConfig, method: str, models: list[FilterModel],
              meas: np.ndarray, truth: np.ndarray, prior_mean: np.ndarray,
              partition: BlockPartition, strict: bool) -> list[dict]:
    """Step one method through a batch of runs; every method takes this path.

    ``models`` are the method's filters: the centralized one, or one per
    agent.  ``meas`` (runs, steps, rows), ``truth`` (runs, steps, d) and
    ``prior_mean`` (runs, d) stack the runs' draws.  The runs share every
    covariance, since no fusion rule of the tracker draws anything at
    random.  Per step: one covariance and gain update per filter and one
    fusion per edge, whose gains then move the (runs, filters, d) means;
    NEES solves all runs against one factorization per filter.  Returns
    one record per run; the covariance-only entries (``avg2sig``,
    ``cov_trace``, ``est_std``, ``omega``) are shared between them.
    """
    layout = scenario.layout()
    d, labels, steps = layout.dim, layout.labels(), scenario.n_steps
    pos_idx = layout.position_indices()
    if method == "centralized":
        z = [meas]
        rec_ids = [-1] if scenario.record_estimates != "none" else []
        rec_cols = [0] * len(rec_ids)
    else:
        # agent a's filter reads its own block of the centralized rows
        z = [meas[:, :, rows] for rows in _row_blocks(models)]
        rec_ids = {"all": list(range(scenario.n_agents)),
                   "report": [scenario.report_agent],
                   "none": []}[scenario.record_estimates]
        rec_cols = rec_ids
    fuses = method not in ("centralized", "none")
    n_runs, cols = len(truth), len(models)

    means = np.repeat(prior_mean[:, None, :], cols, axis=1)
    zero = np.zeros(d)
    # the beliefs carry the shared covariances; their means stay zero
    beliefs = [GaussianEstimate(zero, _prior_covariance(scenario), labels)] * cols

    nees = np.empty((n_runs, steps, cols))
    pos_err = np.empty((n_runs, steps, cols))
    avg2sig = np.empty((steps, cols))
    cov_trace = np.empty((steps, cols))
    est_mean = np.empty((n_runs, steps, len(rec_cols), d)) if rec_cols else None
    est_std = np.empty((steps, len(rec_cols), d)) if rec_cols else None
    records: list[dict] = []

    for k in range(steps):
        for c, model in enumerate(models):
            cov, gain = _covariance_step(beliefs[c].covariance, model)
            beliefs[c] = GaussianEstimate(zero, cov, labels)
            pred = _per_run(model.f, means[:, c])
            means[:, c] = pred + _per_run(gain, z[c][:, k] - _per_run(model.h, pred))
        if fuses and (k + 1) > scenario.fusion_start \
                and (k + 1 - scenario.fusion_start) % scenario.fusion_every == 0:
            for i, j, res in _fuse_edges(beliefs, scenario.edges, method, k,
                                         partition, strict=strict):
                fused = means[:, j] + _per_run(res.gain_a, means[:, i] - means[:, j])
                # where b gets no weight the rules return a's mean as it is
                kept = ~res.gain_b.any(axis=1)
                fused[:, kept] = means[:, i, kept]
                means[:, i] = fused
                means[:, j] = fused
                records += _weight_records(res, method, k, i, j)
        err = means - truth[:, k, None, :]
        pos_err[:, k] = np.linalg.norm(err[:, :, pos_idx], axis=2)
        for c in range(cols):
            cov = beliefs[c].covariance
            # one factorization of the covariance serves every run
            e = err[:, c].T
            nees[:, k, c] = np.sum(e * np.linalg.solve(cov, e), axis=0)
            pv = np.diag(cov)[pos_idx]
            avg2sig[k, c] = 2.0 * float(np.sqrt(np.mean(pv)))
            cov_trace[k, c] = float(np.trace(cov))
        if rec_cols:
            est_mean[:, k] = means[:, rec_cols]
            for ri, c in enumerate(rec_cols):
                est_std[k, ri] = np.sqrt(np.diag(beliefs[c].covariance))

    return [{"nees": nees[r], "pos_err": pos_err[r], "avg2sig": avg2sig,
             "cov_trace": cov_trace, "omega": records,
             "est_mean": None if est_mean is None else est_mean[r],
             "est_std": est_std, "est_agents": rec_ids}
            for r in range(n_runs)]


def _simulate(scenario: ScenarioConfig, run_ids, methods) -> list[dict]:
    """Records of the given runs, every method stepping them in lockstep."""
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    layout = scenario.layout()
    draws = [draw_run(scenario, r) for r in run_ids]
    # the bias, the only per-run field of an agent, does not enter a model
    agent_models = [agent_filter_model(a, layout, scenario.dt, scenario.q)
                    for a in draws[0].agents]
    central = centralized_model(agent_models)
    shared = dict(meas=np.stack([dr.meas for dr in draws]),
                  truth=np.stack([dr.truth for dr in draws]),
                  prior_mean=np.stack([dr.prior_mean for dr in draws]),
                  partition=build_partition(scenario), strict=partition_is_exact(scenario))
    out = [{"truth": dr.truth, "run": r, "methods": {}} for r, dr in zip(run_ids, draws)]
    for method in methods:
        models = [central] if method == "centralized" else agent_models
        for o, rec in zip(out, _lockstep(scenario, method, models, **shared)):
            o["methods"][method] = rec
    return out


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
    return _simulate(scenario, [run_idx], tuple(methods or scenario.methods))[0]


# ---------------------------------------------------------------------------
# Monte-Carlo driver and aggregation

@dataclass
class TrackData:
    scenario: ScenarioConfig
    methods: tuple[str, ...]
    state_dim: int
    runs: list[dict]


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
                           seed=scenario.seed if seed is None else int(seed),
                           mc_runs=scenario.mc_runs if mc_runs is None else int(mc_runs))
    methods = tuple(methods or scenario.methods)
    return TrackData(scenario=scenario, methods=methods,
                     state_dim=scenario.layout().dim,
                     runs=_simulate(scenario, range(scenario.mc_runs), methods))


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
