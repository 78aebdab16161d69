import csv
import io
import json
import math
import os
import platform
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import _pins
from bellforge import akmeas, causal, cli, waves
from bellforge.errors import ValidationError


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
    ("rs1d", "--state", "two-gaussian", "--mass", "-1", "--t", "1"),
    ("wigner", "--state", "two-gaussian", "--mass", "-1", "--t", "1"),
    ("waves", "dump", "--state", "two-gaussian", "--mass", "-1", "--t", "1", "--out", os.devnull),
    ("rs1d", "--state", "two-gaussian", "--mass", "0", "--t", "1"),
    ("marginal-theorem", "--cutoffs", "10,1e11"),
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
    (("parity-chsh", "--r", "400", "--search", "full"), 2),
    (("ak-compare", "--window-std", "1e-9"), 3),
]
# what the error line must say, where it names the option at fault
PROBE_MESSAGES = {("ak-compare", "--window-std", "1e-9"): "error: --window-std 1e-09 keeps 1 x1 row(s)"}


@pytest.mark.parametrize("argv, want", OUT_OF_RANGE_PROBES)
def test_out_of_range_states_exit_without_output(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert PROBE_MESSAGES.get(argv, "error:") in err


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


@pytest.mark.parametrize("where", ["missing directory", "a directory", "no permission"])
def test_unwritable_out_path_exits_2_without_output(tmp_path, capsys, monkeypatch, where):
    """Refused before the command runs: the handler is never called."""
    def never(args):
        raise AssertionError("rs2d ran before its --out was refused")

    monkeypatch.setattr(cli, "_cmd_rs2d", never)
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    if where == "no permission":  # faked: the suite may run as root, which bypasses modes
        path = tmp_path / "x.csv"
        path.write_text("kept")

        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run(capsys, "rs2d", "--n", "512", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "--out" in err and "Traceback" not in err
    if where == "no permission":
        assert os.listdir(tmp_path) == ["x.csv"] and path.read_text() == "kept"


@pytest.mark.parametrize("error", [ValidationError("refused"), RuntimeError("broken")])
def test_failing_command_leaves_no_out_file(tmp_path, capsys, monkeypatch, error):
    """The CSV goes to a temporary file beside the target, removed when the
    command fails, whether it fails as documented or not."""
    def fail(args):
        assert len(os.listdir(tmp_path)) == 1  # the temporary file is open
        raise error

    monkeypatch.setattr(cli, "_cmd_rs2d", fail)
    argv = ("rs2d", "--out", str(tmp_path / "x.csv"))
    if isinstance(error, RuntimeError):
        with pytest.raises(RuntimeError):
            cli.main(list(argv))
    else:
        assert run(capsys, *argv)[:2] == (2, "")
    assert os.listdir(tmp_path) == []


def test_failing_command_keeps_an_existing_out_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.csv"
    path.write_text("kept")
    monkeypatch.setattr(
        cli, "_cmd_chsh", lambda args: ({"s": float("nan")}, (("s",), iter([(1.0,)])))
    )
    code, out, _ = run(capsys, "chsh", "--angles", "0,0,0,0", "--out", str(path))
    assert (code, out) == (1, "")
    assert os.listdir(tmp_path) == ["x.csv"] and path.read_text() == "kept"


def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    """A grid too large to allocate is reported like any other failure: one
    error line, exit 1, nothing on stdout and no --out file."""
    def fail(args):
        raise MemoryError("Unable to allocate 64.1 GiB for an array with shape (2048, 2048, 1025)")

    monkeypatch.setattr(cli, "_cmd_wigner", fail)
    code, out, err = run(capsys, "wigner", "--state", "psi-plus-grid", "--n", "2048",
                         "--out", str(tmp_path / "w.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "64.1 GiB" in err
    assert os.listdir(tmp_path) == []


def test_unallocatable_wigner_grid_exits_1_without_traceback(tmp_path):
    """The real allocation, in a process whose address space is capped at
    2 GiB: an n=1024 grid transform needs 16 GiB for its marginal parts."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from bellforge import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["wigner", "--state", "psi-plus-grid", "--n", "1024", "--out", str(tmp_path / "w.csv")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_out_to_a_device_writes_in_place(capsys):
    """A device is opened as is, never replaced by a renamed file."""
    code, out, err = run(capsys, "rs1d", "--n", "64", "--xmax", "10", "--out", os.devnull)
    assert code == 0, err
    assert json.loads(out)["csv"] == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


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
    assert os.listdir(tmp_path) == ["map.csv"]  # the temporary file was renamed over it


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


FLAT_CUTOFFS = ["1000,1000.0000000000001", "1e9,1.0000000000000002e9"]


@pytest.mark.parametrize("cutoffs", FLAT_CUTOFFS, ids=_pins.ids(FLAT_CUTOFFS, "flat_s_plus"))
def test_marginal_theorem_flat_s_plus_passes(capsys, cutoffs):
    """Valid cutoffs an ulp apart give equal S_+, which is not a decrease.
    Their h = 1/log(L+1) are equal too, so nothing is extrapolated."""
    doc = run_json(capsys, "marginal-theorem", "--cutoffs", cutoffs)
    s_plus = doc["s_plus"]
    assert s_plus == [s_plus[0], s_plus[0]]
    _pins.check("flat_s_plus", cutoffs, _pins.scalar(s_plus[0]))
    assert doc["verdict"]["monotone"] is True
    assert doc["verdict"]["extrapolated_limit"] is None


def test_marginal_theorem_decreasing_s_plus_exits_3(capsys, monkeypatch):
    from bellforge import psbell

    monkeypatch.setattr(psbell, "overlap_integral", lambda cutoff: 1.0 / cutoff)
    code, out, err = run(capsys, "marginal-theorem", "--cutoffs", "10,100")
    assert code == 3 and out == ""
    assert "S_+ decreased" in err and "Traceback" not in err


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


def test_cli_import_leaves_concurrent_futures_unloaded():
    """concurrent.futures loads logging, a few ms of every cold start; only
    a pooled loop (the 2-D Wigner slabs, a joint record of 8 blocks or
    more) imports it."""
    script = "import sys, bellforge.cli\nprint('concurrent.futures' in sys.modules)\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def _second_round_faults(pin):
    """Minor page faults of the second of two rounds that allocate, touch
    and free a 16 MiB array, in a fresh process that first runs one
    ``cli.main`` call if pin is set."""
    script = (
        "import contextlib, io, resource, sys\n"
        "import numpy as np\n"
        "if sys.argv[1] == 'pin':\n"
        "    from bellforge import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['lhv', '--correlators', '0.5,0.5,0.5,-0.5'])\n"
        "for _ in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    a = np.ones(2 << 20)\n"
        "    del a\n"
        "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(faults)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, "-c", script, "pin" if pin else "none"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin is glibc's mallopt")
def test_cli_main_pins_the_heap_thresholds():
    """After one cli.main call a 16 MiB temporary is served from the heap
    and stays there when freed, so the next one takes no fresh pages.
    Without the call glibc maps the first one, then grows the heap for the
    second and faults again."""
    assert _second_round_faults(pin=True) <= 4 < _second_round_faults(pin=False)


@pytest.mark.parametrize("handle", [lambda name: object(), None])
def test_cli_main_runs_without_mallopt(capsys, monkeypatch, handle):
    """No C library handle (TypeError, as on Windows) or one without
    mallopt (not glibc): the pin is skipped and the command runs."""
    opened = []

    def cdll(name):
        opened.append(name)
        return handle(name)  # None is not callable: a TypeError

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._pin_heap_thresholds.cache_clear()
    try:
        doc = run_json(capsys, "lhv", "--correlators", "0.5,0.5,0.5,-0.5")
    finally:
        cli._pin_heap_thresholds.cache_clear()
    assert opened == [None] and doc["command"] == "lhv"


def test_parity_chsh_search(capsys):
    doc = run_json(capsys, "parity-chsh", "--r", "1")
    assert doc["s_max"] == pytest.approx(2.183900, abs=1e-4)
    fixed = run_json(capsys, "parity-chsh", "--displacements", "0.1,0,0,-0.1")
    assert fixed["s"] > 2.0


# fixed-displacement stdout, recorded before the search moved to rescaled
# displacements; the fixed path does not search
PARITY_FIXED_CASES = [
    ("--r", "1", "--displacements", "0.175,0,0,-0.175"),
    ("--r", "3", "--displacements", "0.1,0.2,-0.1,-0.3"),
    ("--r", "354", "--displacements", "10,-10,10,10"),
]

# search stdout, recorded before the simplex moved from numpy arrays to
# lists of Python floats
PARITY_SEARCH_CASES = [
    ("--r", "0.7", "--search", "protocol"),
    ("--r", "0.7", "--search", "full"),
    ("--r", "1.3", "--search", "protocol"),
    ("--r", "1.3", "--search", "full"),
    ("--r", "1.9", "--search", "protocol"),
    ("--r", "1.9", "--search", "full"),
]


@pytest.mark.parametrize("argv", PARITY_FIXED_CASES,
                         ids=_pins.ids(PARITY_FIXED_CASES, "parity_chsh_stdout"))
def test_parity_chsh_fixed_displacements_stdout_pinned(capsys, argv):
    code, out, err = run(capsys, "parity-chsh", *argv)
    _pins.check("parity_chsh_stdout", argv, _pins.stdout(code, out), err)


@pytest.mark.parametrize("argv", PARITY_SEARCH_CASES,
                         ids=_pins.ids(PARITY_SEARCH_CASES, "parity_chsh_stdout"))
def test_parity_chsh_search_stdout_pinned(capsys, argv):
    code, out, err = run(capsys, "parity-chsh", *argv)
    _pins.check("parity_chsh_stdout", argv, _pins.stdout(code, out), err)


def test_ak_compare_transforms_the_state_once(capsys, monkeypatch):
    """The handler reads the state's variances off the record, which computed
    them for its regime warnings, instead of computing them again."""
    fourier, mean_and_var = waves.fourier, waves.mean_and_var
    transformed, moments = [], []

    def counted_fourier(psi, axis=0):
        transformed.append(psi.values.shape)
        return fourier(psi, axis)

    def counted_mean_and_var(psi):
        moments.append(psi.values.shape)
        return mean_and_var(psi)

    monkeypatch.setattr(waves, "fourier", counted_fourier)
    monkeypatch.setattr(waves, "mean_and_var", counted_mean_and_var)
    run_json(capsys, "ak-compare", "--n", "256")
    assert transformed.count((256,)) == 1
    assert moments == [(256,), (256,)]


def test_ak_compare_reduces_the_record_once_per_marginal(capsys, monkeypatch):
    """The handler prints the x1 variance that momentum_peaks computed to
    place its window, instead of summing the n^2 record again."""
    reduced = []
    for name in ("marginal_x1", "marginal_x2"):
        def counted(record, name=name, marginal=getattr(akmeas.AkDistribution, name)):
            reduced.append(name)
            return marginal(record)
        monkeypatch.setattr(akmeas.AkDistribution, name, counted)
    run_json(capsys, "ak-compare", "--n", "256")
    assert sorted(reduced) == ["marginal_x1", "marginal_x2"]


@pytest.mark.parametrize("argv", [
    ("rs1d", "--n", "256"),
    ("rs1d", "--n", "256", "--state", "two-gaussian", "--mc", "20000"),
    ("rs2d", "--n", "64", "--xmax", "10"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--mc", "20000"),
    ("marginal-theorem", "--grid", "64", "--grid-xmax", "12"),
    ("wigner", "--n", "64"),
    ("wigner", "--state", "psi-plus-grid", "--n", "16"),
    ("ak-compare", "--n", "256"),
    ("waves", "dump", "--rep", "p", "--n", "256", "--out", os.devnull),
])
def test_no_command_transforms_the_same_array_twice(capsys, monkeypatch, argv):
    """Each transform of an op sees a different (shape, axis, values): a
    result keeps the states it was built against, and the checks read them
    instead of transforming the source again."""
    assert not _repeated_transforms(capsys, monkeypatch, argv)


def _repeated_transforms(capsys, monkeypatch, argv):
    """(shape, axis) of every transform that one op makes twice of the same
    values.  ``waves._centered_transform`` is the one transform behind
    ``fourier``, ``padded_transform`` and the row blocks of the 2-D verifier
    and the joint record; a transform counts at the shape it writes, so a
    state padded twice shows here, and so does a row block transformed
    twice."""
    transform = waves._centered_transform
    seen = []

    def recorded(values, source, axis, start, ax):
        seen.append((values.shape, axis, _pins.digest(source)))
        return transform(values, source, axis, start, ax)

    monkeypatch.setattr(waves, "_centered_transform", recorded)
    run_json(capsys, *argv)
    assert seen
    return [(shape, axis) for shape, axis, digest in set(seen)
            if seen.count((shape, axis, digest)) > 1]


def _pad_before_verifying(verify):
    # pads the state whose 4x-padded transform the map already keeps
    def patched(m, **kw):
        waves.padded_transform(m.source, 0, causal._FINE)
        return verify(m, **kw)
    return patched


def _transform_before_chaining(rs_map_2d):
    # transforms the state along axis 0, as the chain does again
    def patched(psi, *epsilons):
        waves.fourier(psi, axis=0)
        return rs_map_2d(psi, *epsilons)
    return patched


def _twice(fn):
    # builds the doubly fine target twice, so each of its row blocks repeats
    def patched(*args):
        fn(*args)
        return fn(*args)
    return patched


@pytest.mark.parametrize("argv, name, patch, want", [
    (("rs1d", "--n", "256"), "verify_marginals", _pad_before_verifying, [((1024,), 0)]),
    (("rs2d", "--n", "64", "--xmax", "10"), "rs_map_2d", _transform_before_chaining,
     [((64, 64), 0)]),
    (("rs2d", "--n", "64", "--xmax", "10"), "_double_fine_masses", _twice,
     [((causal._ROWS, 256), 1)] * (256 // causal._ROWS)),
])
def test_same_array_guard_sees_a_repeated_transform(capsys, monkeypatch, argv, name, patch, want):
    """Negative control: a handler that pads or transforms a state twice,
    or transforms a row block twice, trips the guard above."""
    monkeypatch.setattr(causal, name, patch(getattr(causal, name)))
    assert _repeated_transforms(capsys, monkeypatch, argv) == want


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


# stdout of the transport commands, recorded before the verifier's fine
# bins came from one helper (numpy 2.4, x86-64): every distance is printed
# in full, so a bin edge moved by one ulp shows here (the xp rows whose pp
# distance moved by ~1e-17 when xp became the px chain of the axis-swapped
# state were re-recorded then).  The xp --mc row was re-recorded when rs2d
# began to read xp off its one px chain: the Monte Carlo check draws its
# samples on the chain's own axes, not on the axis order the user asked
# for, so xp prints the px report with qp for pq
TRANSPORT_CASES = [
    ("rs1d", "--n", "256", "--state", "gaussian", "--epsilon", "1"),
    ("rs1d", "--n", "256", "--state", "gaussian", "--epsilon", "-1"),
    ("rs1d", "--n", "256", "--state", "two-gaussian", "--epsilon", "1"),
    ("rs1d", "--n", "256", "--state", "two-gaussian", "--epsilon", "-1"),
    ("rs1d", "--n", "256", "--state", "excited", "--epsilon", "1"),
    ("rs1d", "--n", "256", "--state", "excited", "--epsilon", "-1"),
    ("rs1d", "--n", "1024", "--state", "gaussian", "--epsilon", "1"),
    ("rs1d", "--n", "1024", "--state", "gaussian", "--epsilon", "-1"),
    ("rs1d", "--n", "1024", "--state", "two-gaussian", "--epsilon", "1"),
    ("rs1d", "--n", "1024", "--state", "two-gaussian", "--epsilon", "-1"),
    ("rs1d", "--n", "1024", "--state", "excited", "--epsilon", "1"),
    ("rs1d", "--n", "1024", "--state", "excited", "--epsilon", "-1"),
    ("rs1d", "--n", "1024", "--mc", "20000", "--seed", "3"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=1,1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=1,-1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=-1,1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=-1,-1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=1,1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=1,-1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=-1,1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--epsilons=-1,-1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=1,1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=1,-1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=-1,1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "px", "--epsilons=-1,-1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=1,1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=1,-1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=-1,1"),
    ("rs2d", "--n", "128", "--xmax", "12", "--ordering", "xp", "--epsilons=-1,-1"),
    ("rs2d", "--n", "64", "--xmax", "10", "--mc", "20000", "--seed", "5"),
    ("ak-compare", "--n", "256"),
    ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "xp", "--mc", "20000", "--seed", "5"),
]


@pytest.mark.parametrize("argv", TRANSPORT_CASES,
                         ids=_pins.ids(TRANSPORT_CASES, "transport_stdout"))
def test_transport_stdout_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    _pins.check("transport_stdout", argv, _pins.stdout(code, out), err)


@pytest.mark.parametrize("ordering", ["px", "xp"])
def test_rs2d_builds_one_chain_frame_per_chain(capsys, monkeypatch, ordering):
    """One rs_map_2d call per op for either ordering: the state's exact swap
    symmetry gives the xp chain and the other ordering's point maps without
    a second chain."""
    calls = []
    rs_map_2d = causal.rs_map_2d

    def counted(*args):
        calls.append(args)
        return rs_map_2d(*args)

    monkeypatch.setattr(causal, "rs_map_2d", counted)
    run_json(capsys, "rs2d", "--n", "64", "--xmax", "10", "--ordering", ordering)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    *(tuple(a for a in argv if a not in ("--ordering", "px"))
      for argv in TRANSPORT_CASES if "px" in argv),
    ("rs2d", "--rho", "0", "--sigma", "0.7", "--n", "256", "--xmax", "20"),
    # states whose products 2 rho x1 x2 round apart under the swap
    *(("rs2d", "--rho", rho, "--sigma", "0.7", "--n", "128", "--xmax", "14")
      for rho in ("0.6", "-0.7", "0.3")),
    # the Monte Carlo check, as pinned above and at a rho whose products round
    # apart under the swap
    ("rs2d", "--n", "64", "--xmax", "10", "--mc", "20000", "--seed", "5"),
    ("rs2d", "--rho", "0.6", "--sigma", "0.7", "--n", "128", "--xmax", "14",
     "--mc", "50000", "--seed", "2"),
])
def test_rs2d_orderings_agree_on_swap_symmetric_state(capsys, argv):
    """The rho-Gaussian equals its transpose bit for bit, so the xp chain, the
    px chain of the swapped state, reports what px reports, with qp for pq,
    in the deterministic and the Monte Carlo check alike."""
    docs = {o: run_json(capsys, *argv, "--ordering", o) for o in ("px", "xp")}
    xp = docs["xp"]
    dist = xp["verification"]["distances"]
    dist["pq"] = dist.pop("qp")
    xp["ordering"] = "px"
    assert xp == docs["px"]


# lhv stdout for each behavior source and both deciders, recorded before
# the three sources resolved to one quantum_behavior call
LHV_PIPED = {"state": "psi-minus", "kinds": "LELE", "angles_rad": [0.1, 0.5, 0.9, 1.3]}
LHV_CASES = [
    ("--correlators", "0.3,0.3,0.3,0.3"),
    ("--correlators", "0.3,0.3,0.3,0.3", "--brute-force"),
    ("--state", "psi-plus", "--kinds", "LLLL", "--angles", "0,22.5,45,67.5", "--degrees"),
    ("--state", "psi-plus", "--kinds", "LLLL", "--angles", "0,22.5,45,67.5", "--degrees",
     "--brute-force"),
    ("--from-state",),
    ("--from-state", "--brute-force"),
]


@pytest.mark.parametrize("argv", LHV_CASES, ids=_pins.ids(LHV_CASES, "lhv_stdout"))
def test_lhv_stdout_pinned(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(LHV_PIPED)))
    code, out, err = run(capsys, "lhv", *argv)
    _pins.check("lhv_stdout", argv, _pins.stdout(code, out), err)


# chsh stdout and its CSV table (written to a relative path, which the
# stdout names), recorded before one spinor function built every
# ChshSettings
CHSH_TABLE_CASES = [
    ("--state", "singlet", "--kinds", "LELE", "--angles", "0,22.5,45,67.5", "--degrees"),
    ("--state", "psi-plus", "--kinds", "EELE", "--angles", "0.1,0.7,-2.3,4.0", "--maximize"),
]


@pytest.mark.parametrize("argv", CHSH_TABLE_CASES,
                         ids=_pins.ids(CHSH_TABLE_CASES, "chsh_stdout", "chsh_csv"))
def test_chsh_angles_table_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "chsh", *argv, "--out", "chsh.csv")
    _pins.check("chsh_stdout", argv, _pins.stdout(code, out), err)
    _pins.check("chsh_csv", argv, _pins.csv_file(tmp_path / "chsh.csv"))


# wigner stdout, and the CSV of a 2-D grid state (written to a relative
# path, which the stdout names), recorded before the Wigner results carried
# their source state
WIGNER_CASES = [
    ("--n", "256", "--state", "gaussian"),
    ("--n", "256", "--state", "excited"),
    ("--state", "psi-plus-grid", "--n", "16", "--out", "wigner.csv"),
    ("--state", "psi-plus-grid", "--n", "32", "--out", "wigner.csv"),
    ("--state", "psi-plus-grid", "--n", "64", "--out", "wigner.csv"),
]


@pytest.mark.parametrize("argv", WIGNER_CASES,
                         ids=_pins.ids(WIGNER_CASES, "wigner_stdout", "wigner_csv"))
def test_wigner_stdout_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "wigner", *argv)
    _pins.check("wigner_stdout", argv, _pins.stdout(code, out), err)
    if "--out" in argv:
        _pins.check("wigner_csv", argv, _pins.csv_file(tmp_path / "wigner.csv"))
