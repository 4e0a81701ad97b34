"""Sequential reference chains and exhaustive distributions for small instances."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .models import SpinModel, _SPIN
from .schedule import UpdateSchedule

_EXACT_TABLE_LIMIT = 10**6


@dataclass
class ContinuousRun:
    final: np.ndarray
    states: list[int] = field(repr=False)  # each update's new state, in schedule.order


def run_continuous(model: SpinModel, schedule: UpdateSchedule, y0: Sequence[int]) -> ContinuousRun:
    """Drive the continuous-time chain with the schedule's randomness.

    Updates are processed in the (time, node, index) order; the update (v, i)
    with current state c and proposal c' is accepted iff the coin satisfies
    beta < f(v, c, c', neighborhood) evaluated at the pre-update neighborhood.
    Raises ValueError on a filter value outside [0, 1], NaN included.
    """
    schedule.check_model(model)
    cur = model.check_configuration(y0)
    adj = model.graph.adj
    filt = model._filter_raw
    nodes = [v for v, m in enumerate(schedule.counts) for _ in range(m)]
    proposals, coins = ([x for a in arrays for x in a.tolist()] for arrays in (schedule.proposals, schedule.coins))
    states = []
    for pos in schedule.order.tolist():
        v, c_new = nodes[pos], proposals[pos]
        f = filt(v, cur[v], c_new, [cur[u] for u in adj[v]])
        if not 0.0 <= f <= 1.0:
            raise ValueError(
                f"{schedule.update_at(pos)}: filter f(v={v}, c={cur[v]}, c'={c_new}) = {f!r}, outside [0, 1]")
        if coins[pos] < f:
            cur[v] = c_new
        states.append(cur[v])
    return ContinuousRun(np.asarray(cur, dtype=np.int64), states)


def default_weight(model: SpinModel) -> Callable[[Sequence[int]], float]:
    """Unnormalized stationary weight for the built-in model kinds."""
    edges = list(model.graph.edges())
    if model.kind == "coloring":
        def weight(config):
            return 1.0 if all(config[u] != config[v] for u, v in edges) else 0.0
        return weight
    if model.kind == "hardcore":
        lam = model.params["lam"]
        def weight(config):
            if any(config[u] + config[v] > 1 for u, v in edges):
                return 0.0
            return lam ** sum(config)
        return weight
    if model.kind == "ising":
        beta = model.params["beta"]
        def weight(config):
            return math.exp(beta * sum(_SPIN[config[u]] * _SPIN[config[v]] for u, v in edges))
        return weight
    raise ValueError(f"no stationary weight for model kind {model.kind!r}")


def exact_distribution(model: SpinModel) -> dict[tuple[int, ...], float]:
    """Exhaustive normalized distribution over [q]^V of a built-in model kind;
    zero-mass states are omitted. Guarded by q^n <= 1e6.
    """
    if model.q ** model.n > _EXACT_TABLE_LIMIT:
        raise ValueError(
            f"state space too large: {model.q}^{model.n} exceeds {_EXACT_TABLE_LIMIT}"
        )
    weight = default_weight(model)
    table: dict[tuple[int, ...], float] = {}
    z = 0.0
    for config in itertools.product(range(model.q), repeat=model.n):
        w = weight(config)  # >= 0 for every built-in kind
        if w > 0.0:
            table[config] = w
            z += w
    if z == 0.0:
        raise ValueError("weight function assigns zero mass everywhere")
    return {config: w / z for config, w in table.items()}


def total_variation(p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
