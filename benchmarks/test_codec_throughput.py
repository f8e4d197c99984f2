"""Codec throughput microbenchmark: what a socket pays per datagram.

Not a paper figure; tracks the cost of the wire codec on the functions
the UDP transport calls for every datagram — ``encode`` on the way out,
``decode`` on the way in — for the paper's canonical 1350-byte data
message in the two payload shapes the ring carries, and for the token:

* raw ``bytes`` (``wire_encode`` / ``wire_decode``): the payload rides
  behind the fixed body untouched;
* an ``(int, bytes)`` tuple (``wire_encode_value`` /
  ``wire_decode_value``): what the ``udp_sat`` and ``udp_paced``
  workloads of ``perf/`` actually send, which walks the TLV value codec
  on both sides.

Results land in ``bench_results/codec.json`` (msgs/sec) so CI archives
the trend per commit and ``repro.bench.guard`` holds the rates to the
committed baseline.  Measured with ``time.process_time`` like the
kernel benchmark: CPU time, best-of-N, immune to noisy shared runners.
"""

import json
import os
import time

from repro.core import Service, Token
from repro.core.messages import DataMessage
from repro.wire.codec import decode, encode

RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
REPEATS = 5
MESSAGES_PER_SAMPLE = 20_000
PAYLOAD_SIZE = 1350  # the paper's canonical data-message payload


def _sample_messages():
    payload = (bytes(range(256)) * 6)[:PAYLOAD_SIZE]
    assert len(payload) == PAYLOAD_SIZE
    fields = dict(seq=912, pid=3, round=40, service=Service.AGREED,
                  payload_size=PAYLOAD_SIZE, submitted_at=0.125)
    data = DataMessage(payload=payload, **fields)
    valued = DataMessage(payload=(912, payload), **fields)
    token = Token(ring_id=4, hop=812, seq=912, aru=902, aru_id=1, fcc=11,
                  rtr=(903, 907))
    return data, valued, token


def _one_rate(fn, arg):
    """msgs/sec for one pass of fn applied MESSAGES_PER_SAMPLE times."""
    start = time.process_time()
    for _ in range(MESSAGES_PER_SAMPLE):
        fn(arg)
    elapsed = time.process_time() - start
    return MESSAGES_PER_SAMPLE / elapsed if elapsed > 0 else 0.0


def _best_rates(ops):
    """Best-of-REPEATS msgs/sec per op, with the repeats interleaved.

    All ops are sampled once per round, REPEATS rounds: a slow or
    throttled stretch on a shared runner then degrades every op's
    sample for that round equally, instead of penalizing whichever op
    happened to be measured during it.
    """
    best = {name: 0.0 for name, _, _ in ops}
    for _ in range(REPEATS):
        for name, fn, arg in ops:
            best[name] = max(best[name], _one_rate(fn, arg))
    return best


def test_codec_throughput_record():
    data, valued, token = _sample_messages()

    wire_blob = encode(data)
    value_blob = encode(valued)
    token_blob = encode(token)

    rates = _best_rates([
        ("wire_encode", encode, data),
        ("wire_decode", decode, wire_blob),
        ("wire_encode_value", encode, valued),
        ("wire_decode_value", decode, value_blob),
        ("wire_encode_token", encode, token),
        ("wire_decode_token", decode, token_blob),
    ])

    record = {
        "benchmark": "codec_throughput",
        "payload_size": PAYLOAD_SIZE,
        "messages_per_sample": MESSAGES_PER_SAMPLE,
        "repeats": REPEATS,
        "msgs_per_sec": {k: round(v) for k, v in rates.items()},
        "wire_bytes": len(wire_blob),
        "value_wire_bytes": len(value_blob),
        "token_wire_bytes": len(token_blob),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "codec.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    # What is timed is what round-trips.
    assert decode(wire_blob) == data
    assert decode(value_blob) == valued
    assert decode(token_blob) == token
    assert all(rate > 0 for rate in rates.values()), record
