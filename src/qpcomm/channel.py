"""Seeded lossy channel: i.i.d. per-packet Bernoulli drops plus latency."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .wire import Packet


@dataclass
class ChannelConfig:
    drop_rate: float
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")
        if not (0 <= self.latency_ms < np.inf and 0 <= self.jitter_ms < np.inf):
            raise ValueError("latency_ms and jitter_ms must be finite and >= 0")


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
        return {
            "packets_sent": self.packets_sent,
            "packets_dropped": self.packets_dropped,
            "drop_fraction": self.drop_fraction,
            "dropped_seqs": list(self.dropped_seqs),
            "delivery_times_ms": [float(t) for t in self.delivery_times_ms],
        }


def transmit(packets, cfg: ChannelConfig) -> tuple[list[Packet], "ChannelReport"]:
    """Push packets through the channel.

    Each packet is dropped independently with probability ``drop_rate``;
    survivors keep their order and are stamped with
    ``latency_ms + uniform(0, jitter_ms)``.  The jitter draw is indexed by
    packet position, so a packet's timestamp does not depend on which other
    packets were dropped.  Deterministic given the seed.
    """
    packets = list(packets)
    n = len(packets)
    rng = np.random.default_rng(cfg.seed)
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
    """Transfer time in seconds for ``n_bytes`` at the given bandwidth."""
    if bandwidth_bytes_per_s <= 0:
        raise ValueError("bandwidth must be positive")
    return n_bytes / bandwidth_bytes_per_s
