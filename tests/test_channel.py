import dataclasses
import math

import numpy as np
import pytest

from qpcomm.channel import ChannelConfig, latency_for_volume, transmit
from qpcomm.wire import Packet


def make_packets(n):
    return [Packet(0, i, i * 8, bytes(8)) for i in range(min(n, 1 << 16))]


class TestTransmit:
    def test_p_zero_delivers_all(self):
        packets = make_packets(50)
        delivered, report = transmit(packets, ChannelConfig(drop_rate=0.0), 1)
        assert len(delivered) == 50
        assert report.packets_dropped == 0
        assert report.drop_fraction == 0.0

    def test_p_one_drops_all(self):
        packets = make_packets(50)
        delivered, report = transmit(packets, ChannelConfig(drop_rate=1.0), 1)
        assert delivered == []
        assert report.packets_dropped == 50

    def test_binomial_concentration(self):
        # 3-sigma binomial bound at p=0.3 over 10k packets
        packets = make_packets(10_000)
        delivered, report = transmit(packets, ChannelConfig(drop_rate=0.3), 2024)
        bound = 3 * math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(report.drop_fraction - 0.3) <= bound
        assert report.packets_sent == 10_000

    def test_determinism(self):
        packets = make_packets(500)
        cfg = ChannelConfig(drop_rate=0.4, latency_ms=5.0, jitter_ms=2.0)
        d1, r1 = transmit(packets, cfg, 7)
        d2, r2 = transmit(packets, cfg, 7)
        assert [p.seq for p in d1] == [p.seq for p in d2]
        assert r1.dropped_seqs == r2.dropped_seqs
        assert r1.delivery_times_ms == r2.delivery_times_ms

    def test_order_preserved_and_latency_window(self):
        packets = make_packets(200)
        cfg = ChannelConfig(drop_rate=0.2, latency_ms=10.0, jitter_ms=4.0)
        delivered, report = transmit(packets, cfg, 3)
        seqs = [p.seq for p in delivered]
        assert seqs == sorted(seqs)
        times = np.asarray(report.delivery_times_ms)
        assert (times >= 10.0).all() and (times < 14.0).all()

    def test_jitter_independent_of_drops(self):
        # dropping other packets must not change a survivor's timestamp
        packets = make_packets(100)
        base_cfg = ChannelConfig(drop_rate=0.0, latency_ms=1.0, jitter_ms=9.0)
        _, base = transmit(packets, base_cfg, 11)
        lossy_cfg = ChannelConfig(drop_rate=0.5, latency_ms=1.0, jitter_ms=9.0)
        delivered, lossy = transmit(packets, lossy_cfg, 11)
        base_times = dict(zip(range(100), base.delivery_times_ms))
        for p, t in zip(delivered, lossy.delivery_times_ms):
            assert t == base_times[p.seq]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            transmit(make_packets(5), ChannelConfig(drop_rate=0.5), -1)

    def test_config_is_a_frozen_value(self):
        cfg = ChannelConfig(drop_rate=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.drop_rate = 0.0
        assert cfg == ChannelConfig(0.5) and not hasattr(cfg, "seed")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(drop_rate=1.2)
        with pytest.raises(ValueError):
            ChannelConfig(drop_rate=0.5, latency_ms=-1)

    @pytest.mark.parametrize("field", ["latency_ms", "jitter_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_latency_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(drop_rate=0.0, **{field: value})

    def test_latency_plus_jitter_must_be_finite(self):
        # each is finite but the largest delivery time, their sum, is not
        big = 1.7e308
        with pytest.raises(ValueError, match="finite sum"):
            ChannelConfig(drop_rate=0.0, latency_ms=big, jitter_ms=big)
        cfg = ChannelConfig(drop_rate=0.0, latency_ms=big, jitter_ms=1e306)
        _, report = transmit(make_packets(50), cfg, 3)
        assert all(math.isfinite(t) for t in report.delivery_times_ms)

    def test_report_json_dict(self):
        packets = make_packets(10)
        _, report = transmit(packets, ChannelConfig(drop_rate=0.5), 5)
        d = report.to_json_dict()
        assert d["packets_sent"] == 10
        assert d["packets_dropped"] == len(d["dropped_seqs"])
        assert len(d["delivery_times_ms"]) == 10 - d["packets_dropped"]


class TestLatency:
    def test_reference_small_frame(self):
        # 2^14.95 bytes at 1 MB per 100 ms -> about 3.3 ms
        seconds = latency_for_volume(2**14.95, 1e6 / 0.1)
        assert seconds * 1e3 == pytest.approx(3.3, rel=0.05)

    def test_reference_large_frame(self):
        # 6.15 MB at the same bandwidth -> about 615 ms
        seconds = latency_for_volume(6.15e6, 1e6 / 0.1)
        assert seconds * 1e3 == pytest.approx(615.0, rel=0.05)

    def test_zero_bytes(self):
        assert latency_for_volume(0, 123.0) == 0.0

    def test_bandwidth_positive(self):
        with pytest.raises(ValueError):
            latency_for_volume(10, 0.0)

    @pytest.mark.parametrize(
        "n_bytes,bandwidth,match",
        [
            (10, float("nan"), "bandwidth"),
            (10, float("inf"), "bandwidth"),
            (-5, 10.0, "n_bytes"),
            (float("nan"), 10.0, "n_bytes"),
        ],
        ids=["nan-bandwidth", "inf-bandwidth", "negative-bytes", "nan-bytes"],
    )
    def test_bad_input_rejected(self, n_bytes, bandwidth, match):
        with pytest.raises(ValueError, match=match):
            latency_for_volume(n_bytes, bandwidth)
