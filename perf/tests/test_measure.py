import pytest

import measure


def test_percentile_interpolates_between_ranks():
    assert measure.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert measure.percentile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
    assert measure.percentile([7], 0.99) == 7
    assert measure.percentile([1, 2, 3], 0.0) == 1
    assert measure.percentile([1, 2, 3], 1.0) == 3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1], 1.5)


def test_median_of_segments_ignores_one_outlier():
    assert measure.median_of_segments([100.0, 101.0, 5.0]) == 100.0
    with pytest.raises(ValueError):
        measure.median_of_segments([])


def test_segment_spread():
    assert measure.segment_spread([10.0]) == 0.0
    # Quartiles 9.5 and 11 around a median of 10.
    assert measure.segment_spread([9.0, 10.0, 12.0]) == pytest.approx(0.15)
    # One wild segment among many does not move it.
    assert measure.segment_spread([10.0] * 9 + [50.0]) == 0.0


def test_latency_percentiles_take_the_median_over_segments():
    segments = [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [], [2.0, 4.0, 6.0]]
    out = measure.latency_percentiles(segments, (0.5, 1.0))
    # Per-segment p50s are 2, 20, 4 (the empty segment is skipped).
    assert out[0.5] == 4.0
    assert out[1.0] == 6.0


def test_reference_speed_factor():
    assert measure.reference_speed_factor(
        measure.REFERENCE_MOPS, measure.REFERENCE_MOPS) == 1.0
    # A host twice as fast as the reference halves the rate it reports.
    fast = 2 * measure.REFERENCE_MOPS
    assert measure.reference_speed_factor(fast, fast) == 0.5


def test_run_calibrated_runs_once_at_least_and_sets_the_factor():
    class Segment:
        speed_factor = None

    indices = []

    def run_segment(index):
        indices.append(index)
        return Segment()

    segments = measure.run_calibrated(run_segment, 0.0)
    assert indices == [0] and len(segments) == 1
    assert 0.1 < segments[0].speed_factor < 10.0


def test_pinning_leaves_one_cpu():
    import os
    allowed = os.sched_getaffinity(0)
    try:
        cpu = measure.pin_to_one_cpu()
        assert os.sched_getaffinity(0) == {cpu} == {max(allowed)}
    finally:
        os.sched_setaffinity(0, allowed)


def test_split_by_segment_drops_what_is_outside():
    bins = measure.split_by_segment(
        stamps=[9.9, 10.0, 10.9, 11.0, 12.5], values=[0, 1, 2, 3, 4],
        start=10.0, segment_s=1.0, n_segments=2)
    assert bins == [[1, 2], [3]]


def test_calibration_guard():
    assert not measure.calib_differs(30.0, 28.0)
    assert measure.calib_differs(30.0, 20.0)
