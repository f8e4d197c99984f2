"""Historical ablation: the protocol across three network generations.

Section I of the paper: Totem achieved ~75% utilization on 10-megabit
Ethernet (1995), Spread ~80% on 100-megabit (2004), but the same design
drops to ~50% out-of-the-box on 1-gigabit — because switch-era networks
improved throughput ~10x per generation while latency improved far
less.  This bench runs the SAME original protocol on 10M and 1G
testbeds and shows the utilization collapse, then shows the accelerated
protocol restoring it — the paper's framing story, quantified.
"""

from repro.bench import headline
from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT, TEN_MEGABIT
from repro.sim import LIBRARY, run_point


def utilization_probe(spec, config, ladder, payload_size=1350):
    """Highest sustained payload utilization on a link."""
    best = 0.0
    for fraction in ladder:
        offered = fraction * spec.rate_bps
        result = run_point(
            config, LIBRARY, spec, offered,
            payload_size=payload_size, service=Service.AGREED,
            duration_s=min(0.2, 4e6 / spec.rate_bps * 100),
            warmup_s=min(0.06, 4e6 / spec.rate_bps * 30),
        )
        if result.saturated:
            break
        best = result.achieved_bps / spec.rate_bps
    return best


def run_history():
    original = ProtocolConfig.original_ring(personal_window=20)
    accelerated = ProtocolConfig(
        personal_window=20, accelerated_window=15
    )
    ladder = (0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9)
    return {
        ("10M", "original"): utilization_probe(TEN_MEGABIT, original, ladder),
        ("1G", "original"): utilization_probe(GIGABIT, original, ladder),
        ("1G", "accelerated"): utilization_probe(GIGABIT, accelerated, ladder),
    }


def test_history_ablation(benchmark):
    results = benchmark.pedantic(run_history, rounds=1, iterations=1)

    # On 10-megabit Ethernet the ORIGINAL protocol utilizes the network
    # well — the paper quotes ~75% for Totem on 1995 hardware, and the
    # simulated substrate lands right there: serialization dwarfs the
    # per-hop token latency on a slow shared network.
    assert 0.60 <= results[("10M", "original")] <= 0.90, results

    # On 1-gigabit the accelerated protocol clearly beats the original
    # (the trade-off shift of Section I), restoring near-saturation.
    assert results[("1G", "accelerated")] > results[("1G", "original")], results
    assert results[("1G", "accelerated")] >= 0.85, results

    headline(
        "* history ablation (library profile): paper ~75%% utilization for "
        "the original protocol on 10Mbit; measured %.0f%%.  On 1G: original "
        "%.0f%% vs accelerated %.0f%%"
        % (
            results[("10M", "original")] * 100,
            results[("1G", "original")] * 100,
            results[("1G", "accelerated")] * 100,
        )
    )
