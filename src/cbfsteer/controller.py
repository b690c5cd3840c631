"""Goal-seeking nominal policy, the barrier QP safety filter, and closed-loop
rollouts at split simulation/control rates.

The filter solves min ||u - u_nom||^2 over the action box subject to
grad_h . u + alpha*h <= 0 (drift-free dynamics). Strict mode is exact and can
signal infeasibility; relaxed mode trades the constraint for a quadratic
violation penalty and always returns a control.
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
)
from .jsonio import Record
from .kinematics import hold


@dataclass(frozen=True)
class NominalPolicy:
    """Proportional pull toward the goal, saturated to the action box."""

    gain: float = 1.0

    def control(self, q: np.ndarray, q_goal: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        u = -self.gain * (np.asarray(q, float) - np.asarray(q_goal, float))
        return u.clip(lo, hi, out=u)


class QpMode(str, enum.Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


@dataclass(frozen=True)
class SafeControllerConfig(Record):
    alpha: float = 1.0
    relax_penalty: float = 100.0
    mode: QpMode = QpMode.RELAXED

    def __post_init__(self):
        if self.mode is QpMode.RELAXED and self.relax_penalty <= 0:
            raise ValueError("relaxed mode needs a positive penalty")


@dataclass(frozen=True)
class QpDiagnostics:
    constraint_active: bool
    infeasible: bool
    violation: float


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


def solve_safety_qp(u_nom: np.ndarray, grad_h: np.ndarray, h_val: float,
                    cfg: SafeControllerConfig, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, QpDiagnostics]:
    """Filter a nominal control through the barrier constraint a.u + b <= 0
    with a = grad_h and b = alpha*h.

    Strict mode returns the exact constrained minimizer, or signals
    infeasibility when even the best box control cannot satisfy the
    constraint. Relaxed mode always returns a control, trading violation
    against deviation. Diagnostics carry the closed-form infeasibility test in
    both modes. u_nom is expected inside the box (the nominal policy clips).
    Checks and the best box control run on Python floats; the dot products
    stay numpy calls, as in `_breakpoint_walk`.
    """
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(grad_h, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a_l, lo_l, hi_l = a.tolist(), lo.tolist(), hi.tolist()
    if not (all(map(math.isfinite, u_nom.tolist())) and all(map(math.isfinite, a_l))
            and math.isfinite(h_val)):
        raise ValueError("non-finite QP inputs")
    if any(l > h for l, h in zip(lo_l, hi_l)):
        raise ValueError("empty action box")
    b = cfg.alpha * float(h_val)
    # Closed-form separability: the least achievable a.u over the box.
    best_u = np.array([h if ai < 0.0 else l for ai, l, h in zip(a_l, lo_l, hi_l)])
    inf_box = float(a @ best_u)
    infeasible = inf_box + b > 0.0

    if float(a @ u_nom) + b <= 0.0:
        return u_nom, QpDiagnostics(constraint_active=False, infeasible=infeasible, violation=0.0)

    if cfg.mode is QpMode.STRICT:
        if infeasible:
            return best_u, QpDiagnostics(
                constraint_active=True, infeasible=True, violation=inf_box + b)
        u = _breakpoint_walk(u_nom, a, b, 1.0, 0.0, lo, hi)
        viol = max(0.0, float(a @ u) + b)
        return u, QpDiagnostics(constraint_active=True, infeasible=False, violation=viol)

    if not any(a_l):
        u = u_nom
    else:
        u = _breakpoint_walk(u_nom, a, b, cfg.relax_penalty, 1.0, lo, hi)
    viol = max(0.0, float(a @ u) + b)
    return u, QpDiagnostics(constraint_active=True, infeasible=infeasible, violation=viol)


@dataclass(frozen=True)
class RolloutLimits(Record):
    horizon_s: float = 10.0
    sim_hz: int = 120
    ctrl_hz: int = 30
    r_goal: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.horizon_s < math.inf:
            raise ValueError("rollout horizon must be positive and finite")
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
    configs: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    min_signed_distance: list = field(default_factory=list)
    reached_goal: bool = False
    collided: bool = False
    qp_infeasible_count: int = 0
    steps_used: int = 0


def control_tick(bundle: ControllerBundle, env: Environment, q: np.ndarray, q_goal: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, float, QpDiagnostics]:
    """One control tick of the barrier-filtered controller: observe (only if
    the barrier asks for observations), barrier value and gradient, nominal
    control toward q_goal, safety QP. Returns (u, u_nom, h, diagnostics)."""
    barrier, observe = bundle.barrier, bundle.observe
    arm = barrier.arm
    obs = observe(env, arm, q) if (observe is not None and barrier.needs_observation) else None
    h, grad = barrier.value_and_grad(q, obs, env)
    u_nom = bundle.policy.control(q, q_goal, arm.action_lower, arm.action_upper)
    u, diag = solve_safety_qp(u_nom, grad, h, bundle.qp_cfg, arm.action_lower, arm.action_upper)
    return u, u_nom, h, diag


def safe_rollout(bundle: ControllerBundle, q0: np.ndarray, q_goal: np.ndarray,
                 env: Environment) -> RolloutRecord:
    """Closed-loop rollout: control recomputed at ctrl_hz and held (zero-order
    hold) across sim_hz substeps; dynamic obstacles advance at the sim rate.

    Terminates on goal (joint-space ball), collision (ground-truth signed
    distance), or horizon, all three from the bundle's limits. Among moving
    obstacles a tick's substeps are checked in one clearance call, each
    against the obstacles at its own simulation step.
    """
    arm, limits = bundle.barrier.arm, bundle.limits
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    dynamic = env.is_dynamic

    q = np.asarray(q0, dtype=float).copy()
    rec = RolloutRecord()
    rec.configs.append(q.copy())
    d0 = signed_distance(env, arm, q)
    rec.min_signed_distance.append(d0)
    if d0 < 0.0:
        rec.collided = True
        return rec
    dq = q - q_goal
    if math.sqrt(dq @ dq) <= limits.r_goal:
        rec.reached_goal = True
        return rec

    for _ in range(limits.n_ticks):
        u, _, _, diag = control_tick(bundle, env, q, q_goal)
        if diag.infeasible:
            rec.qp_infeasible_count += 1
        rec.controls.append(u)
        rec.steps_used += 1
        tick_configs = hold(arm, q, u, substeps, dt_sim)
        if dynamic:
            ds, env = signed_distance_stepped(env, arm, tick_configs, dt_sim)
        else:
            ds = signed_distance_batch(env, arm, tick_configs)
        for qk, d in zip(tick_configs, ds):
            rec.configs.append(qk)
            rec.min_signed_distance.append(float(d))
            if d < 0.0:
                rec.collided = True
                return rec
        q = tick_configs[-1]
        dq = q - q_goal
        if math.sqrt(dq @ dq) <= limits.r_goal:
            rec.reached_goal = True
            return rec
    return rec
