"""The correction for the host's speed."""

import time

import pytest

import yardstick


def _sampler(at_ms, took_ms):
    sampler = yardstick.Sampler()
    sampler.at_ns = [int(t * 1e6) for t in at_ms]
    sampler.ns = [int(t * 1e6) for t in took_ms]
    return sampler


def test_samples_inside_an_operation_are_not_its_time():
    sampler = _sampler([0, 50, 100, 150], [1, 1, 1, 1])
    assert sampler.inside_ns(int(40e6), int(120e6)) == int(2e6)


def test_time_is_scaled_to_the_reference_speed():
    ref = yardstick.REFERENCE_MS
    sampler = _sampler([0, 50, 100, 150], [2 * ref] * 4)
    # 80 ms of wall time, 2 ms of it in samples, on a host twice as slow
    assert sampler.corrected_ms(int(40e6), int(120e6)) == pytest.approx((80 - 2 * ref * 2) / 2)


def test_scale_reads_samples_near_the_operation_only():
    ref = yardstick.REFERENCE_MS
    far = 1e3 * (yardstick.WINDOW_S + 1)
    sampler = _sampler([0, far, far + 10, 2 * far + 10], [ref, 4 * ref, 4 * ref, ref])
    assert sampler.scale(int((far + 4) * 1e6), int((far + 6) * 1e6)) == pytest.approx(0.25)


def test_sampler_runs_from_the_timer_and_stops():
    sampler = yardstick.Sampler().start()
    try:
        end = time.perf_counter() + 4 * yardstick.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    taken = len(sampler.ns)
    assert taken >= 2 and all(ns > 0 for ns in sampler.ns)
    time.sleep(2 * yardstick.INTERVAL_S)
    assert len(sampler.ns) == taken
