"""Goal-seeking nominal policy, the barrier QP safety filter, and closed-loop
rollouts at split simulation/control rates.

The filter solves min ||u - u_nom||^2 over the action box subject to
grad_h . u + alpha_h*h <= 0 (drift-free dynamics; the barrier's `hyper`
carries alpha_h).
Strict mode is exact and can signal infeasibility; relaxed mode trades the
constraint for a quadratic penalty on its excess and always returns a control.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    Environment,
    signed_distance,
    signed_distance_batch,
    signed_distance_stepped,
    step_obstacles,
)
from .jsonio import Record
from .kinematics import hold, within


@dataclass(frozen=True)
class NominalPolicy:
    """Proportional pull toward the goal, saturated to the action box."""

    gain: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gain < math.inf:
            raise ValueError("policy gain (controller.kp) must be positive and finite")

    def control(self, q: np.ndarray, q_goal: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        u = -self.gain * (np.asarray(q, float) - np.asarray(q_goal, float))
        return u.clip(lo, hi, out=u)


class QpMode(str, enum.Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


@dataclass(frozen=True)
class SafeControllerConfig(Record):
    relax_penalty: float = 100.0
    mode: QpMode = QpMode.RELAXED

    def __post_init__(self):
        object.__setattr__(self, "mode", QpMode(self.mode))
        if not self.relax_penalty < math.inf:
            raise ValueError("relax_penalty must be finite")
        if self.mode is QpMode.RELAXED and self.relax_penalty <= 0:
            raise ValueError("relaxed mode needs a positive penalty")


@dataclass(frozen=True)
class QpDiagnostics:
    constraint_active: bool
    infeasible: bool


def _breakpoint_walk(u_nom: np.ndarray, a: np.ndarray, b: float, k: float, k0: float,
                     lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact filtered control u = clip(u_nom - mu*a) at the root of
    k0*mu = k*phi(mu), where phi(mu) = a.clip(u_nom - mu*a) + b.

    (k, k0) = (1, 0) is the strict projection onto {a.u + b = 0} intersect
    box (phi = 0); (k, k0) = (rho, 1) is the relaxed minimizer of
    ||u - u_nom||^2 + rho*[a.u + b]_+^2 (KKT: mu = rho*phi). phi is piecewise
    linear and non-increasing in mu, with a breakpoint wherever a coordinate
    clamps; on the piece phi = P - s*mu the root is mu = k*P/(k0 + k*s), so
    walking the breakpoints in order finds it exactly. Assumes
    a.u_nom + b > 0 and, in strict mode, a nonempty intersection.

    The scalar steps run on Python floats, which cost far less than numpy
    calls on vectors of a few joints. The free part of phi stays a numpy dot
    (it rounds as a chain of fused multiply-adds, which plain float sums do
    not reproduce), and the free sum of squares stays numpy's sum.
    """
    n = u_nom.shape[0]
    a_l, u_l = a.tolist(), u_nom.tolist()
    sq = a * a
    mu_clamp = [math.inf] * n  # where coordinate i reaches the bound it moves to
    bound_at_clamp = [0.0] * n
    for i, (ai, ui, li, hi_i) in enumerate(zip(a_l, u_l, lo.tolist(), hi.tolist())):
        if ai > 0.0:
            mu_clamp[i] = (ui - li) / ai
            bound_at_clamp[i] = li
        elif ai < 0.0:
            mu_clamp[i] = (ui - hi_i) / ai
            bound_at_clamp[i] = hi_i
    order = np.array(mu_clamp).argsort().tolist()  # np.argsort's order, ties included
    free = np.ones(n, dtype=bool)
    mu_prev = 0.0
    c_clamped = 0.0  # sum over clamped coords of a_i * bound_i
    for j in range(n + 1):
        s_free = float(np.add.reduce(sq[free]))
        phi_const = float(a[free] @ u_nom[free]) + c_clamped + b  # phi = phi_const - s_free*mu
        mu_next = mu_clamp[order[j]] if j < n else math.inf
        den = k0 + k * s_free
        if den > 0.0:
            mu = k * phi_const / den
            # phi is monotone, so a root below the piece's start is roundoff;
            # a root beyond mu_next means another coordinate clamps first
            if mu <= mu_next + 1e-12 * max(1.0, abs(mu)):
                u = u_nom - max(mu, mu_prev) * a
                return u.clip(lo, hi, out=u)
        if j == n:
            break
        i = order[j]
        mu_prev = mu_clamp[i]
        if math.isfinite(mu_prev):
            free[i] = False
            c_clamped += a_l[i] * bound_at_clamp[i]
    # Feasible-by-precondition: the walk only falls through at the tangent point.
    u = u_nom - mu_prev * a
    return u.clip(lo, hi, out=u)


def solve_safety_qp(u_nom: np.ndarray, grad_h: np.ndarray, b: float,
                    cfg: SafeControllerConfig, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, QpDiagnostics]:
    """Filter a nominal control: min ||u - u_nom||^2 over the box subject to
    grad_h.u + b <= 0 (a barrier condition passes b = alpha*h).

    Strict mode returns the exact constrained minimizer, or signals
    infeasibility when even the best box control cannot satisfy the
    constraint. Relaxed mode always returns a control, trading the
    constraint's excess against deviation. Diagnostics carry whether the
    constraint was active and the closed-form infeasibility test, in both
    modes. u_nom is expected inside the box (the nominal policy clips).
    Checks and the best box control run on Python floats; the dot products
    stay numpy calls, as in `_breakpoint_walk`.
    """
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(grad_h, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a_l, lo_l, hi_l = a.tolist(), lo.tolist(), hi.tolist()
    if not (all(map(math.isfinite, u_nom.tolist())) and all(map(math.isfinite, a_l))
            and math.isfinite(b)):
        raise ValueError("non-finite QP inputs")
    if any(l > h for l, h in zip(lo_l, hi_l)):
        raise ValueError("empty action box")
    b = float(b)
    # Closed-form separability: the least achievable a.u over the box.
    best_u = np.array([h if ai < 0.0 else l for ai, l, h in zip(a_l, lo_l, hi_l)])
    inf_box = float(a @ best_u)
    infeasible = inf_box + b > 0.0

    if float(a @ u_nom) + b <= 0.0:
        return u_nom, QpDiagnostics(constraint_active=False, infeasible=infeasible)
    diag = QpDiagnostics(constraint_active=True, infeasible=infeasible)
    if cfg.mode is QpMode.STRICT:
        if infeasible:
            return best_u, diag
        return _breakpoint_walk(u_nom, a, b, 1.0, 0.0, lo, hi), diag
    if not any(a_l):
        return u_nom, diag
    return _breakpoint_walk(u_nom, a, b, cfg.relax_penalty, 1.0, lo, hi), diag


@dataclass(frozen=True)
class RolloutLimits(Record):
    horizon_s: float = 10.0
    sim_hz: int = 120
    ctrl_hz: int = 30
    r_goal: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.horizon_s < math.inf:
            raise ValueError("rollout horizon must be positive and finite")
        if not 0.0 < self.r_goal < math.inf:
            raise ValueError("rollout r_goal must be positive and finite")
        if self.sim_hz <= 0 or self.ctrl_hz <= 0 or self.sim_hz % self.ctrl_hz != 0:
            raise ValueError("sim_hz must be an integer multiple of ctrl_hz")
        if self.n_ticks < 1:
            raise ValueError(f"rollout horizon {self.horizon_s} s is shorter than half a "
                             f"control period at {self.ctrl_hz} Hz, so it runs no tick")

    @property
    def n_ticks(self) -> int:
        return int(round(self.horizon_s * self.ctrl_hz))


@dataclass(frozen=True)
class ControllerBundle:
    """The barrier-filtered controller (CBF-INC) of rollouts and rollout
    steers: a `cbf` barrier, what it sees (`observe(env, arm, q)` or None),
    the nominal policy, the safety QP, and the rates and horizon."""

    barrier: object
    observe: object
    policy: NominalPolicy = NominalPolicy()
    qp_cfg: SafeControllerConfig = SafeControllerConfig()
    limits: RolloutLimits = RolloutLimits()


@dataclass
class RolloutRecord:
    """A rollout's start and states up to a first colliding one, its controls and how it ended."""

    configs: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    reached_goal: bool = False
    collided: bool = False
    qp_infeasible_count: int = 0
    steps_used = property(lambda self: len(self.controls))
    safety_ratio = property(lambda self: (len(self.configs) - self.collided) / len(self.configs))


def control_tick(bundle: ControllerBundle, env: Environment, q: np.ndarray, q_goal: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, float, float, QpDiagnostics]:
    """One control tick of the barrier-filtered controller: observe (if there
    is an observer), barrier value, gradient and clearance reading, nominal
    control toward q_goal, safety QP with b = alpha_h*h. Returns
    (u, u_nom, h, d, diagnostics), d being the clearance the barrier read at q."""
    barrier, observe = bundle.barrier, bundle.observe
    arm = barrier.arm
    obs = None if observe is None else observe(env, arm, q)
    h, grad, d = barrier.value_and_grad(q, obs, env)
    u_nom = bundle.policy.control(q, q_goal, arm.action_lower, arm.action_upper)
    u, diag = solve_safety_qp(u_nom, grad, barrier.hyper.alpha_h * h, bundle.qp_cfg,
                              arm.action_lower, arm.action_upper)
    return u, u_nom, h, d, diag


def rollout_ticks(bundle: ControllerBundle, q: np.ndarray, q_goal: np.ndarray, env: Environment,
                  n_ticks: int, r_goal: float, nominal: bool = False, checked: bool = False):
    """The tick loop of rollouts and rollout steers: at most `n_ticks` ticks
    from q, ending at the start of one whose q is within r_goal of q_goal.
    Each tick runs `control_tick`, holds u (u_nom if `nominal`, the
    filtered-LQR steer) and yields (u held, h, diagnostics, states, ds,
    proven, proves_last). A rollout passes `checked`: a moving world steps at
    the simulation rate, and a tick not proven gets one clearance call, ds,
    each state against the obstacles at its own step. A proven tick, and a
    steer's (it plans in the time-0 snapshot), has ds None.

    The proof rule, conservative advancement: `hold` moves each joint one way
    within a tick, a clamp onto the limits included, so by the reach bound of
    `ArmModel.joint_reach` no point of the tick's ladder has a clearance more
    than sum(rho_i |q_end,i - q_i|) below either end's, plus the obstacles'
    travel substeps * dt_sim * `max_speed` when the world steps: the tick's
    bound. The larger of the barrier's reading d at its start (what
    validation computes at q; -inf for a cloud net) and what is left of the
    last check's reading (its last state's clearance, less the bounds since)
    proves the tick (`proven`) when it exceeds that bound, and d the tick
    before (`proves_last`) when it exceeds that tick's.
    """
    arm, limits = bundle.barrier.arm, bundle.limits
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    moving = checked and env.is_dynamic
    travel = substeps * dt_sim * env.max_speed if moving else 0.0
    move, rest = math.inf, -math.inf  # the last tick's bound; what is left of the last check
    for _ in range(n_ticks):
        if within(q, q_goal, r_goal):
            return
        u, u_nom, h, d, diag = control_tick(bundle, env, q, q_goal)
        u = u_nom if nominal else u
        states = hold(arm, q, u, substeps, dt_sim)
        proves_last = d > move
        move = travel + sum(r * abs(b - a) for r, a, b in zip(arm.joint_reach, q.tolist(),
                                                              states[-1].tolist()))
        move += 1e-9 * move + 1e-9  # roundoff of the states, the ladder and the steps
        proven, rest, ds = max(d, rest) > move, rest - move, None
        if checked and not proven:
            ds, env = (signed_distance_stepped(env, arm, states, dt_sim) if moving
                       else (signed_distance_batch(env, arm, states), env))
            rest = float(ds[-1])
        elif moving:
            env = step_obstacles(env, dt_sim, substeps)
        yield u, h, diag, states, ds, proven, proves_last
        q = states[-1]


def safe_rollout(bundle: ControllerBundle, q0: np.ndarray, q_goal: np.ndarray,
                 env: Environment) -> RolloutRecord:
    """Closed-loop rollout (`rollout_ticks`, checked) that ends on goal
    (joint-space ball), collision (negative ground-truth clearance at the
    start or in a tick the loop checks, as a proven one's states have d > 0)
    or horizon, all three from the bundle's limits, in a world that may move."""
    arm, limits = bundle.barrier.arm, bundle.limits
    q = np.array(q0, dtype=float)
    rec = RolloutRecord(configs=[q], collided=signed_distance(env, arm, q) < 0.0)
    if rec.collided:
        return rec
    for u, _, diag, states, ds, _, _ in rollout_ticks(
            bundle, q, q_goal, env, limits.n_ticks, limits.r_goal, checked=True):
        rec.qp_infeasible_count += diag.infeasible
        rec.controls.append(u)
        hits = () if ds is None else np.flatnonzero(ds < 0.0)
        if len(hits):
            rec.configs.extend(states[:hits[0] + 1])
            rec.collided = True
            return rec
        rec.configs.extend(states)
    rec.reached_goal = within(rec.configs[-1], q_goal, limits.r_goal)
    return rec
