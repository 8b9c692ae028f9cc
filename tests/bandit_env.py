"""Synthetic multi-armed bandit instances for exercising the controller.

Arm means live in [0, 1].  Rewards are either Bernoulli draws or the mean
plus bounded uniform jitter.  Non-stationary instances move the means by a
per-step additive drift (clamped to [0, 1]) or reverse the arm order at a
fixed step, which swaps the identity of the best arm abruptly.

qualities, plays and probabilities read one column of a Controller's arm
statistics, in arm order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from patchbandit.aos import Controller

NOISE_KINDS = ("bernoulli", "jitter")


def qualities(controller: Controller) -> list[float]:
    return [arm.quality for arm in controller.arms]


def plays(controller: Controller) -> list[int]:
    return [arm.plays for arm in controller.arms]


def probabilities(controller: Controller) -> list[float]:
    return [arm.probability for arm in controller.arms]


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


@dataclass(frozen=True)
class BanditSpec:
    arm_means: list[float]
    noise: str = "bernoulli"
    width: float = 0.1                     # jitter band, total width
    drift: list[float] | None = None       # per-arm additive change per step
    swap_at: int | None = None             # step at which arm order reverses

    def __post_init__(self):
        if not self.arm_means:
            raise ValueError("arm_means must be non-empty")
        if any(not 0.0 <= m <= 1.0 for m in self.arm_means):
            raise ValueError("arm_means must lie in [0, 1]")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.drift is not None and len(self.drift) != len(self.arm_means):
            raise ValueError("drift must list one delta per arm in arm_means")

    @property
    def n_arms(self) -> int:
        return len(self.arm_means)

    def mean_at(self, arm: int, step: int) -> float:
        if self.swap_at is not None and step >= self.swap_at:
            arm = self.n_arms - 1 - arm
        mean = self.arm_means[arm]
        if self.drift is not None:
            mean += self.drift[arm] * step
        return _clamp01(mean)

    def best_arm_at(self, step: int) -> int:
        means = [self.mean_at(a, step) for a in range(self.n_arms)]
        return means.index(max(means))

    def pull(self, arm: int, step: int, rng) -> float:
        mean = self.mean_at(arm, step)
        if self.noise == "bernoulli":
            return 1.0 if rng.random() < mean else 0.0
        half = self.width / 2.0
        return _clamp01(mean + rng.uniform(-half, half))


@dataclass
class EpisodeResult:
    selections: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    greedy_arms: list[int] = field(default_factory=list)  # argmax quality per step


def run_episode(spec: BanditSpec, controller: Controller, steps: int,
                rng) -> EpisodeResult:
    """Select, pull, credit once per step.  Credits must apply per pull."""
    if controller.config.cadence != "mutation":
        raise ValueError("episodes credit per pull; use mutation cadence")
    out = EpisodeResult()
    for step in range(steps):
        arm = controller.select_arm(rng)
        raw = spec.pull(arm, step, rng)
        controller.credit(arm, raw)
        out.selections.append(arm)
        out.rewards.append(raw)
        quality = qualities(controller)
        out.greedy_arms.append(quality.index(max(quality)))
    return out
