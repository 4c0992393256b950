"""The Bayesian optimization loop (ask/tell), SMAC3-style.

The optimizer minimizes a black-box objective over a :class:`ConfigSpace`
with a random-forest surrogate and Expected Improvement, bootstrapped by LHS
and optionally warm-started from earlier runs — the "historical optimization
runs can be reused" mechanism of the paper's Section 5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .acquisition import expected_improvement
from .forest import RandomForestRegressor
from .lhs import lhs_configs
from .space import Config, ConfigSpace


@dataclass(frozen=True)
class Observation:
    """One evaluated configuration."""

    config: Config
    value: float


@dataclass
class OptimizationResult:
    best_config: Config | None
    best_value: float
    observations: list[Observation] = field(default_factory=list)

    @property
    def num_evaluations(self) -> int:
        return len(self.observations)


class BayesianOptimizer:
    """Sequential model-based optimization over a configuration space.

    Usage::

        opt = BayesianOptimizer(space, seed=0)
        for _ in range(50):
            config = opt.ask()
            opt.tell(config, objective(config))
    """

    def __init__(
        self,
        space: ConfigSpace,
        seed: int = 0,
        n_initial: int = 8,
        n_candidates: int = 200,
        n_trees: int = 20,
        exploration_fraction: float = 0.1,
        refit_every: int = 1,
    ):
        if len(space) == 0:
            raise ValueError("empty configuration space")
        self.space = space
        self._rng = np.random.default_rng(seed)
        self.n_initial = n_initial
        self.n_candidates = n_candidates
        self.exploration_fraction = exploration_fraction
        self.refit_every = max(int(refit_every), 1)
        self._observations: list[Observation] = []
        self._initial_queue: list[Config] = lhs_configs(space, n_initial, self._rng)
        self._surrogate = RandomForestRegressor(n_trees=n_trees, seed=seed)
        self._stale = True
        self._fitted_size = 0

    # -- state -----------------------------------------------------------------

    @property
    def observations(self) -> list[Observation]:
        return list(self._observations)

    @property
    def best(self) -> Observation | None:
        if not self._observations:
            return None
        return min(self._observations, key=lambda o: o.value)

    def warm_start(self, history: Iterable[tuple[Config, float]]) -> None:
        """Seed the surrogate with externally evaluated configurations.

        This is the history-reuse path: configurations from previous
        enumeration tasks are re-scored under the current objective and
        injected as observations, so the surrogate starts informed.
        """
        for config, value in history:
            self._observations.append(Observation(dict(config), float(value)))
        self._stale = True

    # -- ask / tell ---------------------------------------------------------------

    def ask(self) -> Config:
        """Propose the next configuration to evaluate.

        The candidates stay unit points until one is chosen: the random ones
        are one ``(n_candidates, d)`` draw (the same doubles, in the same
        order, as one ``random(d)`` draw per candidate), the surrogate scores
        their :meth:`ConfigSpace.snap` as one array, and only the best
        becomes a configuration.
        """
        if self._initial_queue:
            return self._initial_queue.pop()
        if len(self._observations) < 2:
            return self.space.sample(self._rng)
        if self._rng.random() < self.exploration_fraction:
            return self.space.sample(self._rng)
        self._refit_if_needed()
        points = np.vstack(
            [
                self._rng.random((self.n_candidates, len(self.space))),
                *self._local_candidates(),
            ]
        )
        mean, std = self._surrogate.predict(self.space.snap(points))
        scores = expected_improvement(mean, std, self.best.value)
        return self.space.from_unit(points[int(np.argmax(scores))])

    def _local_candidates(self, per_incumbent: int = 20) -> list[np.ndarray]:
        """Gaussian perturbations of the best observations (SMAC-style local
        search), which lets EI refine around the incumbent instead of relying
        on global random candidates alone: blocks of unit points."""
        ranked = sorted(self._observations, key=lambda o: o.value)[:3]
        blocks: list[np.ndarray] = []
        for observation in ranked:
            center = self.space.to_unit(observation.config)
            for scale in (0.02, 0.1):
                noise = self._rng.normal(0.0, scale, (per_incumbent // 2, len(center)))
                blocks.append(np.clip(center + noise, 0.0, 1.0))
        return blocks

    def tell(self, config: Config, value: float) -> None:
        """Report an evaluated configuration."""
        self._observations.append(Observation(dict(config), float(value)))
        self._stale = True

    def _refit_if_needed(self) -> None:
        if not self._stale:
            return
        grown_enough = (
            len(self._observations) - self._fitted_size >= self.refit_every
        )
        if self._surrogate.is_fitted and not grown_enough:
            return  # amortize forest fits across several tells
        X = np.stack([self.space.to_unit(o.config) for o in self._observations])
        y = np.array([o.value for o in self._observations])
        self._surrogate.fit(X, y)
        self._fitted_size = len(self._observations)
        self._stale = False

    # -- batch convenience ------------------------------------------------------------

    def minimize(
        self,
        objective: Callable[[Config], float],
        budget: int,
        stop_at: float | None = None,
    ) -> OptimizationResult:
        """Run the full ask/tell loop for *budget* evaluations.

        Stops early when the best value reaches *stop_at* (useful when the
        objective is "distance to the target interval" and 0 means inside).
        """
        for _ in range(budget):
            config = self.ask()
            self.tell(config, objective(config))
            if stop_at is not None and self.best and self.best.value <= stop_at:
                break
        best = self.best
        return OptimizationResult(
            best_config=best.config if best else None,
            best_value=best.value if best else float("inf"),
            observations=self.observations,
        )


def random_search(
    space: ConfigSpace,
    objective: Callable[[Config], float],
    budget: int,
    seed: int = 0,
    stop_at: float | None = None,
) -> OptimizationResult:
    """The no-model baseline used by the paper's "Naive-Search" ablation."""
    rng = np.random.default_rng(seed)
    observations: list[Observation] = []
    for _ in range(budget):
        config = space.sample(rng)
        value = float(objective(config))
        observations.append(Observation(config, value))
        if stop_at is not None and value <= stop_at:
            break
    if observations:
        best = min(observations, key=lambda o: o.value)
        return OptimizationResult(best.config, best.value, observations)
    return OptimizationResult(None, float("inf"), [])
