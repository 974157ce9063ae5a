"""Byzantine adversaries injected into the scalar-report / model-upload path.

Attackers train honestly; only the messages they send to the parameter server
are forged. The fake-loss claim undercuts the best score known to the
attacker, so it wins the selection step until it is screened out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

STRATEGIES = ("none", "fake_loss_garbage", "fake_loss_scaled")


@dataclass(frozen=True)
class AttackSpec:
    attacker_ids: frozenset[int] = field(default_factory=frozenset)
    strategy: str = "none"
    scale: float = 10.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown attack strategy {self.strategy!r}")
        if not math.isfinite(self.scale):
            raise ValueError("attack scale must be finite")

    @property
    def active(self) -> bool:
        return self.strategy != "none" and bool(self.attacker_ids)


def forge_claim(true_claim: float, known_best: float, strategy: str) -> float:
    """Fake scalar loss: half the best value the attacker knows of, minus a bit.

    Guaranteed below the server's current best, so the attacker is always
    invited while unblacklisted. An infinite known_best (no global model yet)
    falls back to undercutting the attacker's own true score.
    """
    if strategy == "none":
        return true_claim
    reference = min(true_claim, known_best)
    if not math.isfinite(reference):
        reference = true_claim
    return reference * 0.5 - 0.01


def forge_report(report, known_best: float, strategy: str):
    """Forged copy of a scalar report (pass-through for the honest strategy)."""
    return replace(report, claimed=forge_claim(report.claimed, known_best, strategy))


def forge_upload(
    w_p: np.ndarray, strategy: str, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Model payload sent when the attacker wins an invitation."""
    if strategy == "none":
        return w_p.copy()
    if strategy == "fake_loss_garbage":
        return rng.uniform(-1.0, 1.0, size=w_p.shape)
    if strategy == "fake_loss_scaled":
        return -scale * w_p
    raise ValueError(f"unknown attack strategy {strategy!r}")
