import pytest

import speed
from speed import REF_NOMINAL_S, Clock


def test_reference_pass_takes_a_positive_time():
    assert speed.reference_s() > 0


def test_clock_leaves_out_readings_and_scales_by_their_mean(monkeypatch):
    now = [0.0]

    def reading(raw):
        now[0] += 5.0  # a reading costs five seconds of the raw clock
        return 2 * REF_NOMINAL_S if len(clock.readings) else 4 * REF_NOMINAL_S

    monkeypatch.setattr(speed, "reference_s", reading)
    clock = Clock(raw=lambda: now[0], every=1.0)
    now[0] = 3.0
    clock.read()
    assert clock() == 3.0 and clock.readings == [4 * REF_NOMINAL_S]
    now[0] += 0.5
    clock.tick()  # less than `every` since the last reading
    assert clock() == 3.5 and len(clock.readings) == 1
    now[0] += 0.5
    clock.tick()
    assert clock() == 4.0 and clock.readings == [4 * REF_NOMINAL_S, 2 * REF_NOMINAL_S]
    assert clock.scale(0) == pytest.approx(1 / 3)
    assert clock.scale(1) == pytest.approx(0.5)
