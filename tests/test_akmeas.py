import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import _pins
from bellforge import akmeas, causal, waves, wigner
from bellforge.errors import DomainError, ValidationError
from test_wigner import _record_fft_threads


def test_window_profile_normalized():
    x = np.linspace(-20.0, 20.0, 8001)
    dx = x[1] - x[0]
    for b in (0.3, 1.0, 2.0):
        g2 = akmeas._window_profile(x, b) ** 2
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
            cell = record.x1_axis.spacing * record.x2_axis.spacing
            assert float(record.joint.sum() * cell) == pytest.approx(1.0, abs=1e-9)
            _, v1 = record.mean_var_x1()
            _, v2 = record.mean_var_x2()
            assert v1 == pytest.approx(var_x + b * b, rel=1e-10)
            assert v2 == pytest.approx(var_p + 1.0 / (4.0 * b * b), rel=1e-10)


def _record_state(name, n):
    if name == "two-gaussian":
        return waves.two_gaussian_packet(n=n, xmax=24.0)
    return waves.gaussian_packet(sigma=1.0, t=1.0, n=n)  # the ak-compare state


# every bit of the joint record: the ak-compare default (b = 0.5, n = 1024),
# the same at n = 2048, the two-gaussian state at n = 512 and a narrow window
JOINT_CASES = [
    ("gaussian", 1024, 0.3),
    ("gaussian", 1024, 0.5),
    ("gaussian", 2048, 0.5),
    ("two-gaussian", 512, 0.5),
]


def _check_joint(case):
    name, n, b = case
    joint = akmeas.ak_distribution(_record_state(name, n), b).joint
    _pins.check("joint_record", case, _pins.array(joint))


@pytest.mark.parametrize("case", JOINT_CASES)
def test_joint_bits_pinned(case):
    _check_joint(case)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_joint_bits_do_not_depend_on_the_thread_count(monkeypatch, workers):
    """Up to more threads than this machine has CPUs, switching between them
    as often as the interpreter allows."""
    monkeypatch.setattr(waves, "_worker_count", lambda count, per_worker: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in JOINT_CASES:
            _check_joint(case)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, threads", [(256, 0), (512, 0), (1024, 2), (2048, 4)])
def test_blocks_run_on_a_pool_from_eight_blocks(monkeypatch, n, threads):
    """With CPUs to spare, n = 256 and 512 (2 and 4 blocks) stay on the
    calling thread and start no pool; larger records start one thread per 4
    blocks."""
    monkeypatch.setattr(waves.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    fft_threads = _record_fft_threads(monkeypatch, meet=max(threads, 1), name="fft")
    akmeas.ak_distribution(_record_state("gaussian", n), 0.5)
    assert len(fft_threads) == threads


@pytest.mark.parametrize("fail_on", ["worker", "caller"])
def test_an_error_in_any_block_thread_reaches_the_caller(monkeypatch, fail_on):
    """Two workers run the blocks on the pool; one worker runs them on the caller."""
    _record_fft_threads(monkeypatch, fail_on, name="fft")
    monkeypatch.setattr(waves, "_worker_count", lambda count, per_worker: 1 if fail_on == "caller" else 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="on the %s thread" % fail_on):
        akmeas.ak_distribution(_record_state("gaussian", 1024), 0.5)
    assert threading.active_count() == before


def test_a_block_thread_that_cannot_start_leaves_none_running(monkeypatch):
    started = []

    class Thread(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    monkeypatch.setattr(waves, "_worker_count", lambda count, per_worker: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start"):
        akmeas.ak_distribution(_record_state("gaussian", 1024), 0.5)
    assert threading.active_count() == before and not started[0].is_alive()


def test_record_memory_is_the_joint_and_per_thread_buffers(monkeypatch):
    """The peak traced memory of a 2-thread n=1024 record is the joint, each
    thread's (_CHUNK, n) complex buffer and less than 96 float arrays of
    length n besides (numpy's cast buffers, 16 of them per thread, and O(n)
    terms; it reads 53-68): one more (_CHUNK, n) float temporary in a block
    would be 128 of them."""
    workers, n = 2, 1024
    monkeypatch.setattr(waves, "_worker_count", lambda count, per_worker: workers)
    psi = _record_state("gaussian", n)
    akmeas.ak_distribution(psi, 0.5)  # imports concurrent.futures, untraced
    joint, buffer = 8 * n * n, 16 * akmeas._CHUNK * n
    tracemalloc.start()
    try:
        akmeas.ak_distribution(psi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint + buffer < peak < joint + workers * buffer + 96 * 8 * n


# ---------------------------------------------------------------------------
# smoothed references: the record's identities computed apart from the record


def _convolve_centered(density, kernel, n):
    # mode="same" centers even-length kernels at (n-1)//2; our grids put
    # the origin at n//2, so slice the full convolution explicitly
    return np.convolve(density, kernel, mode="full")[n // 2 : n // 2 + n]


def _smoothed_position_density(psi, b):
    """|psi|^2 convolved with g_b^2 on the state's grid."""
    ax = psi.axes[0]
    kernel = akmeas._window_profile(ax.points(), b) ** 2
    return _convolve_centered(psi.density(), kernel, ax.n) * ax.spacing


def _smoothed_momentum_density(psi, b):
    """|psi_tilde|^2 convolved with the 1/(2b)-wide momentum blur."""
    tilde = waves.fourier(psi)
    pax = tilde.axes[0]
    p = pax.points()
    s = 1.0 / (2.0 * b)
    kernel = np.exp(-(p * p) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
    return _convolve_centered(tilde.density(), kernel, pax.n) * pax.spacing


def _wigner_smoothed(psi, b):
    """Wigner function smeared by the window Gaussians, on the record grids.

    Equals the joint record density up to grid discretization; the p
    smear resamples the half-spacing Wigner momentum grid onto the
    record's x2 grid.
    """
    grid = wigner.wigner_transform(psi)
    x = grid.x_axis.points()
    pw = grid.p_axis.points()
    x2 = psi.axes[0].conjugate().points()
    gx = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * b * b))
    gx /= b * math.sqrt(2.0 * math.pi)
    sp = 1.0 / (2.0 * b)
    gp = np.exp(-((pw[:, None] - x2[None, :]) ** 2) / (2.0 * sp * sp))
    gp /= sp * math.sqrt(2.0 * math.pi)
    return gx @ grid.values @ gp * grid.x_axis.spacing * grid.p_axis.spacing


def test_marginal_identities():
    psi = waves.gaussian_packet(x0=0.4, p0=0.6, sigma=0.9, n=512, xmax=12.0)
    record = akmeas.ak_distribution(psi, 0.8)
    assert np.max(np.abs(record.marginal_x1() - _smoothed_position_density(psi, 0.8))) < 1e-12
    assert np.max(np.abs(record.marginal_x2() - _smoothed_momentum_density(psi, 0.8))) < 1e-12


def test_record_equals_smoothed_wigner():
    psi = waves.two_gaussian_packet(n=512, xmax=24.0)
    record = akmeas.ak_distribution(psi, 1.0)
    smeared = _wigner_smoothed(psi, 1.0)
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
