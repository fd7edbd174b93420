"""Training and evaluation metrics containers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MetricsRow:
    iteration: int
    reward: float
    avg_reward: float
    loss: float
    epsilon: float
    served: int


@dataclass
class EvalSummary:
    policy: str
    mean_reward: float
    reward_per_mu: float
    served_fraction: float


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    def add_row(self, iteration, reward, avg_reward, loss, epsilon, served) -> None:
        self.rows.append(MetricsRow(iteration, reward, avg_reward, loss, epsilon, served))

    def rewards(self) -> list[float]:
        return [r.reward for r in self.rows]
