import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bellforge import causal, cli, waves


def run(capsys, *argv):
    """Exit code, stdout and stderr; argparse errors exit through SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_chsh_quarter_settings(capsys):
    doc = run_json(
        capsys, "chsh", "--state", "psi-plus", "--kinds", "LLLL",
        "--angles", "0,22.5,45,67.5", "--degrees",
    )
    assert doc["schema_version"] == "1"
    assert set(doc["correlations"]) == {"ab", "ab'", "a'b", "a'b'"}
    assert doc["s"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_chsh_maximize(capsys):
    doc = run_json(capsys, "chsh", "--state", "psi-plus", "--kinds", "LELE", "--maximize")
    assert doc["maximize"]["s"] == pytest.approx(2.0, abs=1e-6)
    assert len(doc["maximize"]["angles_rad"]) == 4


def test_chsh_requires_work(capsys):
    code, out, err = run(capsys, "chsh", "--state", "psi-plus", "--kinds", "LLLL")
    assert code == 2
    assert err


def test_output_deterministic(capsys):
    args = ("chsh", "--state", "singlet", "--kinds", "EEEE", "--angles", "0,22.5,45,67.5", "--degrees")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_lhv_correlators(capsys):
    c = 1.0 / math.sqrt(2.0)
    doc = run_json(capsys, "lhv", "--correlators", f"{c},{-c},{c},{c}")
    assert doc["method"] == "min-norm"
    assert not doc["feasible"]
    assert doc["certificate"]["value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert doc["certificate"]["bound"] == pytest.approx(2.0)


def test_lhv_feasible_point(capsys):
    doc = run_json(capsys, "lhv", "--correlators", "0.3,0.3,0.3,0.3", "--brute-force")
    assert doc["feasible"]
    assert doc["joint"] is not None
    assert doc["method"] == "brute-force"
    # the joint is the unique minimum-norm mixture, whichever route decided
    fast = run_json(capsys, "lhv", "--correlators", "0.3,0.3,0.3,0.3")
    assert fast["joint"] == doc["joint"]


def test_chsh_pipes_into_lhv(capsys, monkeypatch):
    upstream = run_json(
        capsys, "chsh", "--state", "psi-plus", "--kinds", "LLLL",
        "--angles", "0,22.5,45,67.5", "--degrees",
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(upstream)))
    doc = run_json(capsys, "lhv", "--from-state")
    assert not doc["feasible"]
    assert doc["certificate"]["value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


NON_FINITE_PROBES = [
    ("chsh", "--angles", "nan,0,0,0"),
    ("chsh", "--angles", "0,inf,0,0", "--degrees", "--maximize"),
    ("lhv", "--correlators", "nan,0,0,0"),
    ("lhv", "--angles", "0,0,-inf,0"),
    ("rs1d", "--sigma", "nan"),
    ("parity-chsh", "--r", "inf"),
    ("rs2d", "--rho", "nan", "--n", "64"),
    ("wigner", "--state", "psi-plus-grid", "--cutoff", "inf"),
    ("ak-compare", "--window-std=-inf"),
    ("marginal-theorem", "--grid", "32", "--grid-xmax", "nan"),
    ("wigner", "--state", "gaussian", "--xmax", "nan"),
]


@pytest.mark.parametrize("argv", NON_FINITE_PROBES)
def test_non_finite_input_exits_2_without_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("rs1d", "--mc", "-5"),
    ("rs2d", "--mc", "-1", "--n", "64"),
    ("rs2d", "--epsilons", "1.5,1", "--n", "64"),
    ("rs2d", "--epsilons", "0,1", "--n", "64"),
    ("rs1d", "--mc", "100", "--seed", "-1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--mc", "100", "--seed", "-1"),
    ("rs2d", "--sigma", "-0.7", "--n", "64", "--xmax", "10"),
    ("rs2d", "--sigma", "0", "--n", "64", "--xmax", "10"),
    ("ak-compare", "--window-std", "0"),
    ("ak-compare", "--window-std", "-1"),
    ("rs1d", "--n", "0"),
    ("rs2d", "--n", "0"),
    ("wigner", "--n", "0"),
    ("wigner", "--state", "psi-plus-grid", "--n", "0"),
    ("ak-compare", "--n", "0"),
    ("waves", "dump", "--n", "0", "--out", os.devnull),
    ("rs1d", "--state", "excited", "--xmax", "0"),
    ("rs1d", "--state", "two-gaussian", "--xmax", "0"),
    ("rs1d", "--xmax", "0"),
    ("rs1d", "--xmax", "-5"),
    ("wigner", "--xmax", "-1"),
    ("ak-compare", "--xmax", "-1"),
    ("waves", "dump", "--xmax", "-2", "--out", os.devnull),
])
def test_out_of_domain_counts_and_signs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


# finite inputs whose state, squeezing or window leaves double range (exit 2),
# and grids too small or too coarse for what they must hold (exit 3)
OUT_OF_RANGE_PROBES = [
    (("parity-chsh", "--r", "400"), 2),
    (("parity-chsh", "--r", "1000", "--displacements", "0.1,0,0,-0.1"), 2),
    (("rs1d", "--sigma", "1e-300"), 2),
    (("wigner", "--state", "psi-plus-grid", "--cutoff", "1e-300", "--n", "16"), 2),
    (("rs2d", "--xmax", "3", "--n", "64"), 3),
    (("rs1d", "--p0", "1e200"), 2),
    (("ak-compare", "--b", "1e-300"), 2),
    (("ak-compare", "--b", "1e200"), 2),
    (("wigner", "--state", "excited", "--level", "180"), 3),
    (("ak-compare", "--b", "1e-3", "--n", "256"), 3),
    (("rs1d", "--p0", "300"), 3),
    (("rs1d", "--p0", "300", "--n", "256"), 3),
    (("rs2d", "--sigma", "1e200", "--n", "64"), 2),
    (("rs2d", "--sigma", "1e-200", "--n", "64"), 2),
]


@pytest.mark.parametrize("argv, want", OUT_OF_RANGE_PROBES)
def test_out_of_range_states_exit_without_output(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


# grids so wide that the squares in the closed-form states overflow; each
# exits as before, and no numpy warning is printed ahead of its error line
HUGE_XMAX_PROBES = [
    (("rs1d", "--xmax", "1e300"), 3),
    (("rs1d", "--xmax", "1e200", "--state", "excited"), 2),
    (("rs1d", "--xmax", "1e200", "--state", "two-gaussian"), 3),
    (("wigner", "--xmax", "1e200"), 3),
    (("ak-compare", "--xmax", "1e200"), 3),
    (("waves", "dump", "--out", os.devnull, "--xmax", "1e200"), 3),
    (("rs2d", "--n", "64", "--xmax", "1e160"), 2),
]


@pytest.mark.parametrize("argv, want", HUGE_XMAX_PROBES)
def test_huge_xmax_exits_without_numpy_warnings(capsys, argv, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # pytest would capture a warning otherwise
        code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_out_path_exits_2_without_output(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "rs1d", "--n", "64", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "--out" in err and "Traceback" not in err


def test_non_finite_result_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_cmd_chsh", lambda args: ({"s": float("nan")}, (("s",), iter([(1.0,)])))
    )
    table = tmp_path / "t.csv"
    code, out, err = run(capsys, "chsh", "--angles", "0,0,0,0", "--out", str(table))
    assert code == 1
    assert out == "" and not table.exists()
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_finite_piped_angle_exits_2(capsys, monkeypatch):
    doc = {"state": "psi-plus", "kinds": "LLLL", "angles_rad": [0.0, float("nan"), 0.0, 0.0]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "lhv", "--from-state")
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("fields", [
    {"angles_rad": [0.0, 0.5]},
    {"kinds": 5},
    {"state": ["x"]},
    {"angles_rad": "0123"},
    {"angles_rad": [10**400, 0, 0, 0]},
])
def test_malformed_piped_document_exits_2(capsys, monkeypatch, fields):
    doc = {"state": "psi-plus", "kinds": "LLLL", "angles_rad": [0.0, 0.4, 0.8, 1.2], **fields}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "lhv", "--from-state")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_chsh_seed_is_ignored(capsys):
    argv = ("chsh", "--state", "psi-minus", "--kinds", "LELE", "--maximize")
    code1, out1, _ = run(capsys, *argv, "--seed", "1")
    code2, out2, _ = run(capsys, *argv, "--seed", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_lhv_input_modes_exclusive(capsys):
    code, _, err = run(capsys, "lhv", "--correlators", "0,0,0,0", "--angles", "0,1,2,3")
    assert code == 2
    assert err


def test_rs1d_default_passes(capsys):
    doc = run_json(capsys, "rs1d")
    assert doc["verification"]["passed"]
    assert doc["verification"]["distances"]["p"] < 5e-3
    assert doc["takabayasi"]["gap"] > 1.5


def test_rs1d_truncation_exit_code(capsys):
    code, _, err = run(capsys, "rs1d", "--xmax", "3")
    assert code == 3
    assert err


def test_rs1d_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    doc = run_json(capsys, "rs1d", "--n", "256", "--xmax", "12", "--out", str(out))
    assert doc["csv"] == str(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "p_hat"]
    assert len(rows) == 257


def test_rs2d_report(capsys):
    doc = run_json(capsys, "rs2d", "--n", "128", "--xmax", "10")
    assert doc["ordering"] == "px"
    assert set(doc["verification"]["distances"]) == {"qq", "pq", "pp"}
    assert doc["swap_difference"]["p1"] > 1e-3
    assert doc["off_pair_distance"] > 0.05


def test_marginal_theorem_verdict(capsys):
    doc = run_json(capsys, "marginal-theorem")
    v = doc["verdict"]
    assert v["monotone"]
    assert v["exceeds_2_at"] == 100.0
    assert v["extrapolated_limit"] == pytest.approx(2.0 * math.sqrt(2.0), rel=0.05)
    assert len(doc["s_plus"]) == 4


def test_wigner_excited_minimum(capsys):
    doc = run_json(capsys, "wigner", "--state", "excited", "--level", "1", "--n", "256", "--xmax", "10")
    assert doc["min_w"] == pytest.approx(-1.0 / math.pi, abs=1e-4)
    assert not doc["gaussian"]


def test_wigner_default_grid_depends_on_the_state(capsys):
    """The 2-D grid states cost O(n^4 log n), so without --n they run at
    n=64; the 1-D states keep n=256."""
    assert run_json(capsys, "wigner", "--state", "psi-plus-grid")["n"] == 64
    assert run_json(capsys, "wigner", "--state", "excited")["n"] == 256


def test_wigner_high_level_on_a_wide_grid(capsys):
    doc = run_json(capsys, "wigner", "--state", "excited", "--level", "180",
                   "--xmax", "24", "--n", "1024")
    assert math.isfinite(doc["min_w"]) and doc["min_w"] < 0.0


@pytest.mark.parametrize("d", ["10,10,10,10", "10,-10,10,10"])
def test_parity_chsh_finite_at_extreme_squeezing(capsys, d):
    doc = run_json(capsys, "parity-chsh", "--r", "354", "--displacements", d)
    assert abs(doc["s"]) <= 2.0 * math.sqrt(2.0)


def test_parity_chsh_full_search_at_large_r(capsys):
    doc = run_json(capsys, "parity-chsh", "--r", "50", "--search", "full")
    assert abs(doc["s_max"]) <= 2.0 * math.sqrt(2.0)


# one default-sized op per subcommand, each small enough to run in a second
COLD_OPS = [
    ["chsh", "--angles", "0,22.5,45,67.5", "--degrees", "--maximize"],
    ["lhv", "--correlators", "0.3,0.3,0.3,0.3"],
    ["lhv", "--correlators", "0.7071,-0.7071,0.7071,0.7071", "--brute-force"],
    ["rs1d"],
    ["rs2d", "--n", "64", "--xmax", "10"],
    ["wigner", "--state", "excited", "--level", "1"],
    ["parity-chsh", "--r", "1"],
    ["parity-chsh", "--r", "1", "--search", "full"],
    ["marginal-theorem"],
    ["ak-compare", "--n", "256"],
]


def test_repeated_calls_in_one_process_are_identical(capsys):
    """The parser is built once per process; reusing it across successes,
    argparse errors (exit 2) and library errors (exit 3) changes no output."""
    sequence = [*COLD_OPS[:3], ["chsh", "--state", "bogus"], *COLD_OPS[3:6],
                ["rs1d", "--xmax", "3"], *COLD_OPS[6:]]
    passes = [[run(capsys, *argv)[:2] for argv in sequence] for _ in range(2)]
    assert passes[0] == passes[1]
    assert [code for code, _ in passes[0]] == [0] * 3 + [2] + [0] * 3 + [3] + [0] * 4
    for argv in COLD_OPS:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_parser_is_built_once(capsys):
    cli._parser.cache_clear()
    sequence = (COLD_OPS[1], ["chsh", "--state", "bogus"], ["waves", "dump"], COLD_OPS[1])
    assert [run(capsys, *argv)[0] for argv in sequence] == [0, 2, 2, 0]
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(sequence) - 1)


def test_cli_runs_without_scipy():
    """A fresh process imports bellforge.cli, runs every subcommand and never
    loads scipy: its import would cost more than most of the work."""
    script = (
        "import io, contextlib, json, sys\n"
        "from bellforge import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(COLD_OPS)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    codes, scipy_modules = json.loads(proc.stdout)
    assert codes == [0] * len(COLD_OPS)
    assert scipy_modules == []


def test_parity_chsh_search(capsys):
    doc = run_json(capsys, "parity-chsh", "--r", "1")
    assert doc["s_max"] == pytest.approx(2.183900, abs=1e-4)
    fixed = run_json(capsys, "parity-chsh", "--displacements", "0.1,0,0,-0.1")
    assert fixed["s"] > 2.0


# sha256 prefixes of fixed-displacement stdout, recorded before the search
# moved to rescaled displacements; the fixed path does not search
PARITY_FIXED_DIGESTS = [
    (("--r", "1", "--displacements", "0.175,0,0,-0.175"), "9227527aac38b6eb"),
    (("--r", "3", "--displacements", "0.1,0.2,-0.1,-0.3"), "41a92dcb63e09431"),
    (("--r", "354", "--displacements", "10,-10,10,10"), "f5b775a3ebb5f0a7"),
]


@pytest.mark.parametrize("argv, want", PARITY_FIXED_DIGESTS)
def test_parity_chsh_fixed_displacements_stdout_pinned(capsys, argv, want):
    code, out, err = run(capsys, "parity-chsh", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


def test_ak_compare_transforms_the_state_once(capsys, monkeypatch):
    """The handler reads the state's variances off the record, which computed
    them for its regime warnings, instead of computing them again."""
    fourier, mean_and_var = waves.fourier, waves.mean_and_var
    transformed, moments = [], []

    def counted_fourier(psi, axis=0):
        transformed.append(psi.values.shape)
        return fourier(psi, axis)

    def counted_mean_and_var(psi, axis=0):
        moments.append(psi.values.shape)
        return mean_and_var(psi, axis)

    monkeypatch.setattr(waves, "fourier", counted_fourier)
    monkeypatch.setattr(waves, "mean_and_var", counted_mean_and_var)
    run_json(capsys, "ak-compare", "--n", "256")
    assert transformed.count((256,)) == 1
    assert moments == [(256,), (256,)]


def test_ak_compare_table(tmp_path, capsys):
    out = tmp_path / "ak.csv"
    doc = run_json(capsys, "ak-compare", "--out", str(out))
    assert doc["record_slope"] == pytest.approx(1.0 / 6.0, abs=1e-3)
    assert abs(doc["map_slope"] - doc["record_slope"]) > 0.1
    assert doc["variances"]["x1"] == pytest.approx(doc["variances"]["x1_expected"], rel=1e-6)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "p_ak", "p_rs"]
    assert len(rows) > 50
    body = np.array(rows[1:], dtype=float)
    assert np.all(np.isfinite(body))


def test_waves_dump(tmp_path, capsys):
    code, _, err = run(capsys, "waves", "dump")
    assert code == 2 and err
    out = tmp_path / "state.csv"
    doc = run_json(capsys, "waves", "dump", "--state", "two-gaussian", "--rep", "p", "--out", str(out))
    assert doc["csv"] == str(out)
    assert doc["command"] == "waves dump" and doc["schema_version"] == "1"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "real", "imag", "density"]
    assert len(rows) == 4097


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chsh", "--state", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# sha256 prefixes of the stdout of the transport commands, recorded before
# the verifier's fine bins came from one helper (numpy 2.4, x86-64): every
# distance is printed in full, so a bin edge moved by one ulp shows here
# (the xp rows whose pp distance moved by ~1e-17 when xp became the px chain
# of the axis-swapped state were re-recorded then)
STDOUT_DIGESTS = [
    (("rs1d", "--n", "256", "--state", "gaussian", "--epsilon", "1"), "39ad25ea17cd43ab"),
    (("rs1d", "--n", "256", "--state", "gaussian", "--epsilon", "-1"), "bc6368e182e6a3cb"),
    (("rs1d", "--n", "256", "--state", "two-gaussian", "--epsilon", "1"), "2570ef90358c1e56"),
    (("rs1d", "--n", "256", "--state", "two-gaussian", "--epsilon", "-1"), "c62d7f8977c1569d"),
    (("rs1d", "--n", "256", "--state", "excited", "--epsilon", "1"), "db209009c02748bc"),
    (("rs1d", "--n", "256", "--state", "excited", "--epsilon", "-1"), "a33161f1d887625c"),
    (("rs1d", "--n", "1024", "--state", "gaussian", "--epsilon", "1"), "54d43813e7db5947"),
    (("rs1d", "--n", "1024", "--state", "gaussian", "--epsilon", "-1"), "e8af572c8f17a3d7"),
    (("rs1d", "--n", "1024", "--state", "two-gaussian", "--epsilon", "1"), "035fcf99fe795311"),
    (("rs1d", "--n", "1024", "--state", "two-gaussian", "--epsilon", "-1"), "3ac46c97b4f21f8c"),
    (("rs1d", "--n", "1024", "--state", "excited", "--epsilon", "1"), "b77f44a819cdb275"),
    (("rs1d", "--n", "1024", "--state", "excited", "--epsilon", "-1"), "5bb486b12e52b22c"),
    (("rs1d", "--n", "1024", "--mc", "20000", "--seed", "3"), "f048ed016d8fa240"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=1,1"), "ed9caf4007720e68"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=1,-1"), "6f8c1e7958336ece"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=-1,1"), "f774fcee25fdb665"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=-1,-1"), "cf3466d4a022e931"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=1,1"), "7de057bc454f7cab"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=1,-1"), "9fb47867421d166a"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=-1,1"), "de12e83b13b0a039"),
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=-1,-1"), "3ea856934e46c9d3"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=1,1"), "48b8681da708a729"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=1,-1"), "98afdd987ad40525"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=-1,1"), "5543958ffdc67317"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=-1,-1"), "7a80ecaaae6cddc9"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=1,1"), "0a37023bbd9545c4"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=1,-1"), "476bc85be4080585"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=-1,1"), "e88210b257756137"),
    (("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=-1,-1"), "7ec1bbd84ecf4af2"),
    (("rs2d", "--n", "64", "--xmax", "10", "--mc", "20000", "--seed", "5"), "635364cf6854e77c"),
    (("ak-compare", "--n", "256"), "916be18fadf69767"),
    # recorded before a chain held its frame, which the xp Monte Carlo check swaps back
    (("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--mc", "20000", "--seed", "5"),
     "91bae5db3a3ff2a4"),
]


@pytest.mark.parametrize("argv, want", STDOUT_DIGESTS)
def test_transport_stdout_pinned(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


@pytest.mark.parametrize("ordering", ["px", "xp"])
def test_rs2d_builds_one_chain_frame_per_chain(capsys, monkeypatch, ordering):
    """Each chain holds its frame, so its verification and off-pair distance
    reuse it: one frame for the chain and one for the other ordering's."""
    calls = []
    chain_frame = causal._chain_frame

    def counted(psi, o):
        calls.append(o)
        return chain_frame(psi, o)

    monkeypatch.setattr(causal, "_chain_frame", counted)
    run_json(capsys, "rs2d", "--n", "64", "--xmax", "10", "--ordering", ordering)
    assert sorted(calls) == ["px", "xp"]


@pytest.mark.parametrize("argv", [
    *(tuple(a for a in argv if a not in ("--ordering", "px"))
      for argv, _ in STDOUT_DIGESTS if "px" in argv),
    ("rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20"),
])
def test_rs2d_orderings_agree_on_swap_symmetric_state(capsys, argv):
    """The rho-Gaussian is symmetric under x1 <-> x2, so the xp chain, the px
    chain of the swapped state, reports what px reports, with qp for pq."""
    docs = {o: run_json(capsys, *argv, "--ordering", o) for o in ("px", "xp")}
    xp = docs["xp"]
    dist = xp["verification"]["distances"]
    dist["pq"] = dist.pop("qp")
    xp["ordering"] = "px"
    assert xp == docs["px"]


# sha256 prefixes of lhv stdout for each behavior source and both deciders,
# recorded before the three sources resolved to one quantum_behavior call
LHV_PIPED = {"state": "psi-minus", "kinds": "LELE", "angles_rad": [0.1, 0.5, 0.9, 1.3]}
LHV_DIGESTS = [
    (("--correlators", "0.3,0.3,0.3,0.3"), "97a72cfa24954a19"),
    (("--correlators", "0.3,0.3,0.3,0.3", "--brute-force"), "44687e29dd2f9f60"),
    (("--state", "psi-plus", "--kinds", "LLLL", "--angles", "0,22.5,45,67.5", "--degrees"),
     "f57853027cf8c388"),
    (("--state", "psi-plus", "--kinds", "LLLL", "--angles", "0,22.5,45,67.5", "--degrees",
      "--brute-force"), "ff1f2653fe34345c"),
    (("--from-state",), "c05455dc5b502c30"),
    (("--from-state", "--brute-force"), "07b95a52c083707c"),
]


@pytest.mark.parametrize("argv, want", LHV_DIGESTS)
def test_lhv_stdout_pinned(capsys, monkeypatch, argv, want):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(LHV_PIPED)))
    code, out, err = run(capsys, "lhv", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


# sha256 prefixes of chsh stdout and of its CSV table (written to a relative
# path, which the stdout names), recorded before one spinor function built
# every ChshSettings
CHSH_TABLE_DIGESTS = [
    (("--state", "singlet", "--kinds", "LELE", "--angles", "0,22.5,45,67.5", "--degrees"),
     "474d9f1750fc1220", "61a494002324369e"),
    (("--state", "psi-plus", "--kinds", "EELE", "--angles", "0.1,0.7,-2.3,4.0", "--maximize"),
     "dbd3ecf28d09c8df", "a924bebdb615fb6e"),
]


@pytest.mark.parametrize("argv, want_out, want_csv", CHSH_TABLE_DIGESTS)
def test_chsh_angles_table_pinned(tmp_path, capsys, monkeypatch, argv, want_out, want_csv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "chsh", *argv, "--out", "chsh.csv")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want_out
    assert hashlib.sha256((tmp_path / "chsh.csv").read_bytes()).hexdigest()[:16] == want_csv


# sha256 prefixes of wigner stdout, and of the CSV of a 2-D grid state
# (written to a relative path, which the stdout names), recorded before the
# Wigner results carried their source state
WIGNER_DIGESTS = [
    (("--n", "256", "--state", "gaussian"), "2d4a71722f4ec3c2", None),
    (("--n", "256", "--state", "excited"), "e38927e3ac4251ec", None),
    (("--state", "psi-plus-grid", "--n", "16", "--out", "wigner.csv"),
     "c895be72dde257f9", "2e951a35945ceba3"),
]


@pytest.mark.parametrize("argv, want_out, want_csv", WIGNER_DIGESTS)
def test_wigner_stdout_pinned(tmp_path, capsys, monkeypatch, argv, want_out, want_csv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "wigner", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want_out
    if want_csv is not None:
        assert hashlib.sha256((tmp_path / "wigner.csv").read_bytes()).hexdigest()[:16] == want_csv
