"""The test arms: the default 3-link arm and a 7-link arm of the same reach,
1.2, each with a hand margin under its clearance cap (1.2/7 - 2 * 0.04 =
0.091 at 7 links, where the default margin, 0.15, is refused), and the
helpers the oracle tests share to run their cases at both: the config
overrides of an arm (`tests/pipeline.py --links`), the link-count axis of a
parametrized test, near-contact starts and a barrier that over-reports its
clearance reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from cbfsteer.cbf import HandcraftedBarrier
from cbfsteer.environment import signed_distance
from cbfsteer.kinematics import ArmModel, sample_config

ARMS = {3: ArmModel(), 7: ArmModel(link_lengths=(1.2 / 7,) * 7)}
HAND_MARGIN = {3: 0.15, 7: 0.05}


def config_overrides(links: int) -> dict:
    """The config overrides that give the arm of `links` links and its hand
    margin: none for the default arm, which the default config has."""
    if links == 3:
        return {}
    arm = ARMS[links]
    return {"arm": {name: list(getattr(arm, name))
                    for name in ("link_lengths", "joint_lower", "joint_upper", "action_bound")},
            "controller": {"hand_margin": HAND_MARGIN[links]}}


def over_links(names, values):
    """`pytest.mark.parametrize(names, values)` with each case at both arms of
    `ARMS`, the link count passed as `links`. The 3-link cases keep the ids
    of `values` alone, so a test keeps its name when it gains the axis."""
    rows = [v if isinstance(v, tuple) else (v,) for v in values]
    return pytest.mark.parametrize(f"{names}, links", [
        pytest.param(*row, n, id="-".join(map(str, row)) + ("" if n == 3 else f"-{n}links"))
        for n in ARMS for row in rows])


def near_contact(env, arm, q_free, q_hit):
    """Bisect from a free configuration toward a colliding one until the
    clearance is in [0, 0.01)."""
    lo, hi = 0.0, 1.0
    while True:
        t = 0.5 * (lo + hi)
        q = q_free + t * (q_hit - q_free)
        d = signed_distance(env, arm, q)
        if 0.0 <= d < 0.01:
            return q
        lo, hi = (lo, t) if d < 0.0 else (t, hi)


def contact_pairs(env, arm, rng, count):
    """(near-contact start, a target beyond the obstacle it touches)."""
    pairs = []
    while len(pairs) < count:
        q_free, q_hit = sample_config(arm, rng), sample_config(arm, rng)
        if signed_distance(env, arm, q_free) > 0.05 and signed_distance(env, arm, q_hit) < 0.0:
            q = near_contact(env, arm, q_free, q_hit)
            pairs.append((q, q + 2.0 * (q_hit - q)))
    return pairs


@dataclass(frozen=True)
class InflatedReading:
    """A barrier that reports the clearance its hand barrier read, plus 1e-3."""

    inner: HandcraftedBarrier
    kind = "handcrafted"
    arm = property(lambda self: self.inner.arm)
    hyper = property(lambda self: self.inner.hyper)

    def value_and_grad(self, q, observation, env):
        h, grad, d = self.inner.value_and_grad(q, observation, env)
        return h, grad, d + 1e-3
