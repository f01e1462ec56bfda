"""Seeded lossy channel: i.i.d. per-packet Bernoulli drops plus latency."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .wire import Packet


@dataclass(frozen=True)
class ChannelConfig:
    drop_rate: float
    latency_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")
        # the sum bounds every delivery time, latency_ms + jitter_ms * u for u < 1
        if not (0 <= self.latency_ms and 0 <= self.jitter_ms
                and self.latency_ms + self.jitter_ms < np.inf):
            raise ValueError("latency_ms and jitter_ms must be >= 0 with a finite sum")


@dataclass
class ChannelReport:
    packets_sent: int
    packets_dropped: int
    dropped_seqs: list = field(default_factory=list)
    delivery_times_ms: list = field(default_factory=list)  # one per delivered packet

    @property
    def drop_fraction(self) -> float:
        return self.packets_dropped / self.packets_sent if self.packets_sent else 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "drop_fraction": self.drop_fraction}


def transmit(packets, cfg: ChannelConfig, seed: int = 0) -> tuple[list[Packet], "ChannelReport"]:
    """Push packets through the channel.

    Each packet is dropped independently with probability ``drop_rate``;
    survivors keep their order and are stamped with
    ``latency_ms + uniform(0, jitter_ms)``.  The jitter draw is indexed by
    packet position, so a packet's timestamp does not depend on which other
    packets were dropped.  Deterministic given ``seed``, which must be >= 0.
    """
    packets = list(packets)
    n = len(packets)
    rng = np.random.default_rng(seed)
    u_drop = rng.random(n)
    u_jitter = rng.random(n)
    dropped = u_drop < cfg.drop_rate
    times = cfg.latency_ms + cfg.jitter_ms * u_jitter
    delivered = [p for p, d in zip(packets, dropped) if not d]
    report = ChannelReport(
        packets_sent=n,
        packets_dropped=int(dropped.sum()),
        dropped_seqs=[p.seq for p, d in zip(packets, dropped) if d],
        delivery_times_ms=[float(t) for t, d in zip(times, dropped) if not d],
    )
    return delivered, report


def latency_for_volume(n_bytes: float, bandwidth_bytes_per_s: float) -> float:
    """Transfer time in seconds for ``n_bytes`` >= 0 at a finite bandwidth > 0."""
    if not 0 < bandwidth_bytes_per_s < np.inf:  # NaN fails too
        raise ValueError("bandwidth must be positive and finite")
    if not n_bytes >= 0:
        raise ValueError("n_bytes must be >= 0")
    return n_bytes / bandwidth_bytes_per_s
