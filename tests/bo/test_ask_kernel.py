"""``BayesianOptimizer.ask`` scoring its candidates as one array.

``ask`` draws its random candidates as one ``(n_candidates, d)`` block,
keeps every candidate a unit point, scores ``ConfigSpace.snap`` of them and
turns only the best into a configuration.  The former per-candidate body —
one ``random(d)`` draw, one ``from_unit`` and one ``to_unit`` per candidate
— is kept here verbatim as the reference: over seeded spaces that mix every
parameter kind, the asked configurations and the generator state after
every step must be identical.  ``snap`` itself must equal the scalar
``to_unit(from_unit(u))`` it stands for.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bo import (
    BayesianOptimizer,
    CategoricalParameter,
    Config,
    ConfigSpace,
    FloatParameter,
    IntegerParameter,
    expected_improvement,
)

SPACES = 200
STEPS = 12


class ReferenceOptimizer(BayesianOptimizer):
    """The optimizer with the per-candidate ``ask`` it had before."""

    def ask(self) -> Config:
        """Propose the next configuration to evaluate."""
        if self._initial_queue:
            return self._initial_queue.pop()
        if len(self._observations) < 2:
            return self.space.sample(self._rng)
        if self._rng.random() < self.exploration_fraction:
            return self.space.sample(self._rng)
        self._refit_if_needed()
        candidates = self.space.sample_many(self.n_candidates, self._rng)
        candidates.extend(self._local_candidates())
        X = np.stack([self.space.to_unit(c) for c in candidates])
        mean, std = self._surrogate.predict(X)
        best_value = self.best.value if self.best else 0.0
        scores = expected_improvement(mean, std, best_value)
        return candidates[int(np.argmax(scores))]

    def _local_candidates(self, per_incumbent: int = 20) -> list[Config]:
        """Gaussian perturbations of the best observations (SMAC-style local
        search), which lets EI refine around the incumbent instead of relying
        on global random candidates alone."""
        ranked = sorted(self._observations, key=lambda o: o.value)[:3]
        locals_: list[Config] = []
        for observation in ranked:
            center = self.space.to_unit(observation.config)
            for scale in (0.02, 0.1):
                noise = self._rng.normal(0.0, scale, (per_incumbent // 2, len(center)))
                for point in np.clip(center + noise, 0.0, 1.0):
                    locals_.append(self.space.from_unit(point))
        return locals_


def random_space(rng: np.random.Generator) -> ConfigSpace:
    """One to five parameters of every kind: floats and integers, some
    log-scaled, integers with ``low == high``, and categoricals whose
    choices repeat (as a LIKE pattern built from two values can)."""
    space = ConfigSpace()
    for index in range(int(rng.integers(1, 6))):
        name = f"p{index}"
        kind = int(rng.integers(0, 6))
        if kind == 0:
            low = float(rng.normal() * 100)
            space.add(FloatParameter(name, low, low + float(rng.random() * 50 + 1e-3)))
        elif kind == 1:
            low = float(rng.random() * 10 + 0.01)
            space.add(FloatParameter(name, low, low * float(rng.integers(2, 1000)), log=True))
        elif kind == 2:
            low = int(rng.integers(-500, 500))
            high = low if rng.random() < 0.3 else low + int(rng.integers(1, 2000))
            space.add(IntegerParameter(name, low, high))
        elif kind == 3:
            low = int(rng.integers(1, 50))
            space.add(IntegerParameter(name, low, low + int(rng.integers(0, 5000)), log=True))
        else:
            pool = ["%ab%", "%cd%", "%e%", "x", "y"]
            size = int(rng.integers(1, 12))
            choices = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size))
            space.add(CategoricalParameter(name, choices))
    return space


def objective(space: ConfigSpace, config: Config) -> float:
    point = space.to_unit(config)
    return float(np.sum((point - 0.3) ** 2) + 0.1 * math.sin(7 * point[0]))


def same_config(a: Config, b: Config) -> bool:
    return [(k, type(v), repr(v)) for k, v in a.items()] == [
        (k, type(v), repr(v)) for k, v in b.items()
    ]


class TestAskMatchesPerCandidateReference:
    def test_configs_and_generator_state_match(self):
        kinds = set()
        for seed in range(SPACES):
            rng = np.random.default_rng([seed, 24])
            space = random_space(rng)
            params = dict(
                seed=seed,
                n_initial=int(rng.integers(1, 4)),
                n_candidates=int(rng.choice([0, 1, 7, 50, 200])),
                n_trees=int(rng.integers(1, 5)),
                exploration_fraction=float(rng.choice([0.0, 0.1, 0.5])),
                refit_every=int(rng.integers(1, 4)),
            )
            ours = BayesianOptimizer(space, **params)
            reference = ReferenceOptimizer(space, **params)
            if rng.random() < 0.3:
                history = [(space.sample(rng), float(rng.random())) for _ in range(5)]
                ours.warm_start(history)
                reference.warm_start(history)
            for step in range(STEPS):
                asked = ours.ask()
                expected = reference.ask()
                assert same_config(asked, expected), (seed, step)
                assert (
                    ours._rng.bit_generator.state
                    == reference._rng.bit_generator.state
                ), (seed, step)
                value = objective(space, asked)
                ours.tell(asked, value)
                reference.tell(expected, value)
            for parameter in space.parameters:
                kinds.add((type(parameter).__name__, getattr(parameter, "log", None)))
        assert kinds >= {
            ("FloatParameter", False),
            ("FloatParameter", True),
            ("IntegerParameter", False),
            ("IntegerParameter", True),
            ("CategoricalParameter", None),
        }


class TestSnap:
    def scalar_snap(self, space: ConfigSpace, points: np.ndarray) -> np.ndarray:
        return np.stack([space.to_unit(space.from_unit(p)) for p in points])

    def test_equals_the_scalar_round_trip(self):
        edges = np.array([0.0, 1.0, 1.0 - 1e-12, 0.5, 1e-300])
        for seed in range(SPACES):
            rng = np.random.default_rng([seed, 7])
            space = random_space(rng)
            d = len(space)
            points = np.vstack(
                [
                    rng.random((40, d)),
                    np.repeat(edges[:, None], d, axis=1),
                    rng.choice(edges, size=(10, d)),
                ]
            )
            snapped = space.snap(points)
            assert snapped.dtype == np.float64 and snapped.shape == points.shape
            assert snapped.tobytes() == self.scalar_snap(space, points).tobytes(), seed

    def test_duplicate_choices_map_to_the_first(self):
        parameter = CategoricalParameter("c", ("%ab%", "x", "%ab%", "x"))
        snapped = parameter.snap(np.array([0.0, 0.3, 0.6, 0.9, 1.0]))
        assert snapped.tolist() == [0.125, 0.375, 0.125, 0.375, 0.375]

    def test_fixed_integer_maps_to_one_half(self):
        parameter = IntegerParameter("i", 5, 5)
        assert parameter.snap(np.array([0.0, 0.4, 1.0])).tolist() == [0.5] * 3
