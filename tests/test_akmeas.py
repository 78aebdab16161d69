import dataclasses
import math

import numpy as np
import pytest

from bellforge import akmeas, causal, waves
from bellforge.errors import DomainError, ValidationError


def test_window_profile_normalized():
    x = np.linspace(-20.0, 20.0, 8001)
    dx = x[1] - x[0]
    for b in (0.3, 1.0, 2.0):
        g2 = akmeas.window_profile(x, b) ** 2
        assert float(g2.sum() * dx) == pytest.approx(1.0, abs=1e-12)
        assert float((g2 * x * x).sum() * dx) == pytest.approx(b * b, rel=1e-10)


def test_record_validation():
    psi = waves.gaussian_packet(n=256, xmax=10.0)
    with pytest.raises(DomainError):
        akmeas.ak_distribution(psi, 0.0)
    with pytest.raises(ValidationError):
        akmeas.ak_distribution(waves.fourier(psi), 1.0)
    with pytest.raises(ValidationError):
        akmeas.ak_distribution(waves.correlated_gaussian_2d(n=32, xmax=6.0), 1.0)
    with pytest.raises(ValidationError):
        akmeas.momentum_peaks("not a record")


def test_variance_identities():
    for sigma in (0.5, 1.0, 2.0):
        for b in (0.2, 1.0):
            # the grid must hold the record blur on top of the state
            psi = waves.gaussian_packet(sigma=sigma, n=1024, xmax=12.0 * sigma + 8.0 * b)
            _, var_x = waves.mean_and_var(psi)
            _, var_p = waves.mean_and_var(waves.fourier(psi))
            record = akmeas.ak_distribution(psi, b)
            assert record.total_mass() == pytest.approx(1.0, abs=1e-9)
            _, v1 = record.mean_var_x1()
            _, v2 = record.mean_var_x2()
            assert v1 == pytest.approx(var_x + b * b, rel=1e-10)
            assert v2 == pytest.approx(var_p + 1.0 / (4.0 * b * b), rel=1e-10)


def test_marginal_identities():
    psi = waves.gaussian_packet(x0=0.4, p0=0.6, sigma=0.9, n=512, xmax=12.0)
    record = akmeas.ak_distribution(psi, 0.8)
    assert np.max(np.abs(record.marginal_x1() - akmeas.smoothed_position_density(psi, 0.8))) < 1e-12
    assert np.max(np.abs(record.marginal_x2() - akmeas.smoothed_momentum_density(psi, 0.8))) < 1e-12


def test_record_equals_smoothed_wigner():
    psi = waves.two_gaussian_packet(n=512, xmax=24.0)
    record = akmeas.ak_distribution(psi, 1.0)
    smeared = akmeas.wigner_smoothed(psi, 1.0)
    assert np.max(np.abs(record.joint - smeared)) < 1e-10


def test_regime_warnings():
    # near-minimum-uncertainty state: no window width is faithful
    psi = waves.gaussian_packet(sigma=1.0, t=1.0, n=1024)
    record = akmeas.ak_distribution(psi, 0.5)
    assert record.warnings
    assert any("spread product" in w for w in record.warnings)


def test_ridge_slope_matches_closed_form():
    sigma, t, b = 1.0, 1.0, 0.5
    psi = waves.gaussian_packet(sigma=sigma, t=t, n=1024)
    record = akmeas.ak_distribution(psi, b)
    peaks = akmeas.momentum_peaks(record)
    expected = akmeas.gaussian_record_slope(sigma, t, 1.0, b)
    assert expected == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert peaks["slope"] == pytest.approx(expected, abs=1e-3)
    assert np.count_nonzero(~peaks["flat"]) > 50


def test_record_and_transport_slopes_differ():
    sigma, t, b = 1.0, 1.0, 0.5
    psi = waves.gaussian_packet(sigma=sigma, t=t, n=1024)
    record = akmeas.ak_distribution(psi, b)
    peaks = akmeas.momentum_peaks(record)
    m = causal.rs_map_1d(psi)
    usable = ~peaks["flat"]
    x1 = peaks["x1"][usable]
    map_slope = np.polyfit(x1, m.evaluate(x1), 1)[0]
    analytic = akmeas.gaussian_map_slope(sigma, t, 1.0)
    assert analytic == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    assert map_slope == pytest.approx(analytic, abs=2e-2)
    assert abs(map_slope - peaks["slope"]) > 0.1


def _reference_peaks(record, window_std=3.0):
    """The per-row ridge loop that ``momentum_peaks`` replaces with whole-array code."""
    mean1, var1 = record.mean_var_x1()
    x1 = record.x1_axis.points()
    idx = np.nonzero(np.abs(x1 - mean1) <= window_std * math.sqrt(var1))[0]
    p = record.x2_axis.points()
    dp = record.x2_axis.spacing
    row_floor = 1e-12 * float(record.joint.max()) * record.joint.shape[1]
    peaks = np.empty(idx.shape)
    flat = np.zeros(idx.shape, dtype=bool)
    for out_k, k in enumerate(idx):
        row = record.joint[k]
        j = int(np.argmax(row))
        peaks[out_k] = p[j]
        if row.sum() < row_floor or j == 0 or j == record.joint.shape[1] - 1:
            flat[out_k] = True
            continue
        trip = row[j - 1 : j + 2]
        if trip.min() <= 0.0:
            flat[out_k] = True
            continue
        logs = np.log(trip)
        denom = logs[0] - 2.0 * logs[1] + logs[2]
        if denom >= -1e-12:
            flat[out_k] = True
            continue
        peaks[out_k] += 0.5 * (logs[0] - logs[2]) / denom * dp
    usable = ~flat
    slope = np.polyfit(x1[idx][usable], peaks[usable], 1)[0] if usable.sum() >= 2 else math.nan
    return peaks, flat, float(slope)


def _planted_rows(n, top):
    """Conditionals that each meet one flat rule: curved maxima on either
    grid end, a curved row of negligible mass, an all-zero row, a top with
    no curvature (left neighbour below it by 5e-13 in log, right neighbour
    equal) and a spike between zeros; then two that are not flat: the same
    top with 3e-12 of curvature, and a tie between two maxima."""
    middle = n // 2
    edge = top * np.exp(-(np.arange(n) ** 2) / 50.0)
    centered = top * np.exp(-((np.arange(n) - middle) ** 2) / 50.0)
    flat_top = np.full(n, 0.1 * top)
    flat_top[middle : middle + 2] = top
    flat_top[middle - 1] = top * math.exp(-5e-13)
    curved_top = flat_top.copy()
    curved_top[middle - 1] = top * math.exp(-3e-12)
    spike = np.zeros(n)
    spike[middle] = top
    tie = 0.1 * centered
    tie[middle + 10] = tie[middle]
    return (edge, edge[::-1], 1e-20 * centered, np.zeros(n), flat_top, spike, curved_top, tie)


def _planted(record):
    """The record with the ``_planted_rows`` around its heaviest row, 5 rows
    apart; returns it and the planted row indices."""
    joint = record.joint.copy()
    rows = _planted_rows(joint.shape[1], 0.5 * joint.max())
    at = int(np.argmax(joint.sum(axis=1))) - 20 + 5 * np.arange(len(rows))
    joint[at] = rows
    return dataclasses.replace(record, joint=joint), at


@pytest.mark.parametrize("state", ["default", "n2048", "two-gaussian"])
def test_momentum_peaks_equal_per_row_loop_bitwise(state):
    if state == "two-gaussian":
        psi = waves.two_gaussian_packet(n=512, xmax=24.0)
    else:  # the ak-compare default record, and the same at n = 2048
        psi = waves.gaussian_packet(sigma=1.0, t=1.0, n=2048 if state == "n2048" else 1024)
    record = akmeas.ak_distribution(psi, 0.5)
    flat_rows = 0
    for rec in (record, _planted(record)[0]):
        for window_std in (3.0, 1e6):
            got = akmeas.momentum_peaks(rec, window_std=window_std)
            peaks, flat, slope = _reference_peaks(rec, window_std)
            assert got["p_peak"].tobytes() == peaks.tobytes()
            assert got["flat"].tobytes() == flat.tobytes()
            assert got["slope"] == slope
            flat_rows += int(flat.sum())
    assert flat_rows > 0


def test_planted_rows_cover_every_flat_rule():
    psi = waves.gaussian_packet(sigma=1.0, t=1.0, n=1024)
    record, at = _planted(akmeas.ak_distribution(psi, 0.5))
    got = akmeas.momentum_peaks(record, window_std=1e6)
    assert got["x1"].tolist() == record.x1_axis.points().tolist()  # every row kept
    assert got["flat"][at].tolist() == [True] * 6 + [False] * 2
    p = record.x2_axis.points()
    assert got["p_peak"][at[0]] == p[0] and got["p_peak"][at[1]] == p[-1]
    assert got["p_peak"][at[5]] == p[len(p) // 2]
