"""Checks of the benchmark itself: generator, oracles, span arithmetic."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _argvs(workload, seed, r=0):
    return [(op.id, op.argv) for op in workloads.round_ops(workload, seed, r)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7, 1) == _argvs(workload, 7, 1)
    assert _argvs(workload, 7) != _argvs(workload, 8)
    assert _argvs(workload, 7) != _argvs(workload, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_shape_across_seeds(workload):
    def shape(seed):
        return sorted((op.kind, op.mode, op.probe) for op in workloads.round_ops(workload, seed, 0))

    assert shape(1) == shape(2) == shape(3)


def test_sweep_inputs_are_seeded():
    assert workloads.sweep_inputs(3) == workloads.sweep_inputs(3)
    assert workloads.sweep_inputs(3) != workloads.sweep_inputs(4)


def _run(op):
    from bellforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def _lhv_op(inside):
    rng = workloads.Draw(5, 0)
    return workloads.lhv_correlators(rng, "t-lhv", inside=inside, brute=False)


@pytest.mark.parametrize("inside", [True, False])
def test_lhv_oracle_rejects_flipped_feasible(inside):
    op = _lhv_op(inside)
    code, out, err = _run(op)
    assert oracles.judge(op, code, out, err) is None
    doc = json.loads(out)
    doc["feasible"] = not doc["feasible"]
    assert "feasible" in oracles.judge(op, code, json.dumps(doc), err)


def test_chsh_oracle_rejects_s_above_tsirelson():
    op = workloads.chsh(workloads.Draw(2, 0), "t-chsh", maximize=True)
    code, out, err = _run(op)
    assert oracles.judge(op, code, out, err) is None
    doc = json.loads(out)
    doc["maximize"]["s"] = 2.0 * math.sqrt(2.0) + 1e-6
    assert "above 2*sqrt(2)" in oracles.judge(op, code, json.dumps(doc), err)


def test_parity_oracle_rejects_s_above_tsirelson():
    op = Op("t-par", "parity-chsh", ("parity-chsh", "--r", "1"))
    code, out, err = _run(op)
    assert oracles.judge(op, code, out, err) is None
    doc = json.loads(out)
    doc["s_max"] = 3.0
    assert oracles.judge(op, code, json.dumps(doc), err) is not None


def test_oracle_rejects_nan_in_stdout():
    op = workloads.chsh(workloads.Draw(4, 0), "t-nan")
    code, out, err = _run(op)
    assert oracles.judge(op, code, out, err) is None
    doc = json.loads(out)
    doc["s"] = float("nan")
    assert "NaN" in oracles.judge(op, code, json.dumps(doc), err)


def test_oracle_rejects_wrong_exit_code_and_traceback():
    op = workloads.chsh(workloads.Draw(4, 0), "t-code")
    code, out, err = _run(op)
    assert "exit 3" in oracles.judge(op, 3, out, err)
    probe = Op("t-probe", "probe", ("chsh", "--angles", "nan,0,0,0"), expect_code=2)
    assert oracles.judge(probe, 2, "", "error: bad angles\n") is None
    assert "documented 2" in oracles.judge(probe, 0, out, "")
    assert "traceback" in oracles.judge(probe, 2, "", oracles.TRACEBACK + "\n")


def test_self_time_on_hand_built_tree():
    tree = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 0, "b", 3.0, 6.0],
        [3, 1, "c", 2.0, 3.0],
        [4, 0, "a", 8.0, 9.0],
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    agg = spans.aggregate(tree)
    assert agg["a"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 3.0})
    assert spans.coverage(tree, {0}) == pytest.approx(0.6)


def _settings():
    from bellforge import spinor

    a = [spinor.AnalyzerSetting(t) for t in (0.0, 0.4, 0.8, 1.2)]
    return spinor.ChshSettings(a=a[0], b=a[1], a_prime=a[2], b_prime=a[3])


def test_wrappers_sit_at_every_module_attribute():
    from bellforge import lhv, spinor

    original = spinor.check_state
    state, settings = spinor.psi_plus(), _settings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lhv.check_state is spinor.check_state is not original
        lhv.quantum_behavior(state, settings)
    finally:
        tracer.uninstall()
    assert spinor.check_state is original and lhv.check_state is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == "lhv.quantum_behavior"
    assert "spinor.check_state" in names and "spinor.analyzer_ket" in names
    assert all(s[1] == 0 for s in tracer.spans[1:])


def test_tail_is_order_statistic_with_ten_beyond_at_minimum_run():
    for pct in workloads.TAIL_PERCENTILE.values():
        n = run.min_mix_ops(pct)
        assert run.tail(list(range(n, 0, -1)), pct)[1] == 10
        assert run.tail(list(range(n - 1)), pct)[1] < 10
    assert run.tail(list(range(1, 41)), 75.0) == (30, 10)
    assert run.tail(list(range(1, 201)), 90.0) == (180, 20)
    assert run.tail([3.0], 90.0) == (3.0, 0)


def test_trimmed_mean_cuts_a_tenth_from_each_end():
    assert run.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert run.trimmed_mean(list(range(20))) == pytest.approx(9.5)
    assert run.trimmed_mean([0.0, 100.0, 4.0, 2.0] * 5) == pytest.approx(20.625)
