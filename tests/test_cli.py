"""Command-line contract: outputs, exit codes, determinism, report schema."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from fockspace import cli, specfun, verify


def run_cli(*args, env=None, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "fockspace.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


def test_eval_momentum_ground_state():
    proc = run_cli("eval", "momentum", "--n", "1", "--l", "0", "--m", "0",
                   "--point", "0", "0", "0")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().splitlines()
    assert header == "n,l,m,px_or_x,py_or_y,pz_or_z,re,im,abs"
    fields = row.split(",")
    assert fields[:3] == ["1", "0", "0"]
    assert float(fields[-1]) == pytest.approx(0.900316, abs=1e-6)


def test_eval_position_ground_state():
    proc = run_cli("eval", "position", "--n", "1", "--l", "0", "--m", "0",
                   "--point", "0", "0", "0")
    assert proc.returncode == 0
    assert float(proc.stdout.strip().splitlines()[1].split(",")[-1]) == pytest.approx(
        0.564190, abs=1e-6
    )


def test_eval_position_node_on_axis():
    proc = run_cli("eval", "position", "--n", "2", "--l", "1", "--m", "1",
                   "--point", "0", "0", "1")
    assert proc.returncode == 0
    assert float(proc.stdout.strip().splitlines()[1].split(",")[-1]) == 0.0


def test_eval_json_format():
    proc = run_cli("eval", "momentum", "--n", "2", "--l", "1", "--m", "0",
                   "--point", "0.1", "0.2", "0.3", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "momentum"
    assert payload["units"] == "atomic"
    assert abs(complex(payload["re"], payload["im"])) == pytest.approx(payload["abs"])


@pytest.mark.parametrize("args", [
    ("eval", "position", "--n", "1", "--l", "1", "--m", "0", "--point", "0", "0", "0"),
    ("table", "radial", "--n", "1", "--l", "3", "--grid", "0", "1", "3"),
    ("table", "radial", "--n", "0", "--l", "0", "--grid", "0", "1", "3"),
    ("table", "momentum-radial", "--n", "2", "--l", "5", "--grid", "0", "1", "3"),
    # C_-1 = 0 in the library, but a table of it is a mistyped degree
    ("table", "gegenbauer", "--a", "0.5", "--m", "-1", "--grid", "-1", "1", "3"),
], ids=["eval", "table-radial-l", "table-radial-n", "table-momentum-radial",
        "table-gegenbauer-m"])
def test_eval_rejects_invalid_quantum_numbers(args):
    proc = run_cli(*args)
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("fockspace: error:")


@pytest.mark.parametrize("argv", [
    ["eval", "momentum", "--l", "0", "--m", "0", "--point", "0.1", "0", "0"],
    ["table", "radial", "--l", "0", "--grid", "0", "1", "3"],
    ["table", "momentum-radial", "--l", "0", "--grid", "0", "1", "3"],
], ids=["eval", "table-radial", "table-momentum-radial"])
def test_commands_cap_the_principal_quantum_number(argv, capsys):
    # each walks n - l - 1 recurrence rungs, so a huge --n would run for minutes
    cap = cli._MAX_DEGREE
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--n", str(cap + 1)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert err.splitlines()[-1] == (
        f"fockspace: error: the principal quantum number --n must be at most {cap:,}, "
        f"got {cap + 1}")
    # the cap itself is a state; the check runs before any recurrence
    assert cli._quantum_numbers(cli.build_parser(), cap, 0).n == cap


def test_table_gegenbauer_caps_the_degree(capsys):
    cap = cli._MAX_DEGREE
    argv = ["table", "gegenbauer", "--a", "0.5", "--grid", "-1", "1", "3", "--m"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [str(cap + 1)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert err.splitlines()[-1] == (
        f"fockspace: error: the Gegenbauer degree --m must be at most {cap:,}, got {cap + 1}")
    # the cap itself is a degree: P_cap(+-1) = 1
    assert cli.main(argv + [str(cap)]) == 0
    assert capsys.readouterr().out.splitlines()[1::2] == ["-1,1", "1,1"]


def test_eval_output_bytes_deterministic():
    args = ("eval", "momentum", "--n", "3", "--l", "2", "--m", "-1",
            "--point", "0.3", "-0.4", "0.5")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_table_radial_shape():
    proc = run_cli("table", "radial", "--n", "3", "--l", "1", "--grid", "0", "30", "300")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "r_bohr,R_nl"
    assert len(lines) == 301
    assert proc.returncode == 0


def test_table_fock_unit_norm_column():
    proc = run_cli("table", "fock", "--delta", "0.5", "--grid-p", "0", "5", "100")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "p_au,y1,y2,y3,y4,norm"
    assert len(lines) == 101
    for row in lines[1:]:
        assert float(row.split(",")[-1]) == pytest.approx(1.0, abs=1e-12)


def test_fock_map_alias_matches_table():
    a = run_cli("table", "fock", "--delta", "0.5", "--grid-p", "0", "5", "20")
    b = run_cli("fock-map", "--delta", "0.5", "--grid-p", "0", "5", "20")
    assert a.stdout == b.stdout


def test_table_gegenbauer_even_symmetry():
    proc = run_cli("table", "gegenbauer", "--a", "1", "--m", "4",
                   "--grid", "-1", "1", "101")
    lines = proc.stdout.strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in lines]
    assert len(vals) == 101
    for k in range(101):
        assert vals[k] == pytest.approx(vals[100 - k], rel=1e-12)


def test_table_bad_grid_exit_code():
    for args in (
        ("table", "radial", "--n", "1", "--l", "0", "--grid", "5", "1", "10"),
        ("table", "radial", "--n", "1", "--l", "0", "--grid", "0", "1", "2000001"),
        # a count that is no integer is refused, not truncated
        ("table", "radial", "--n", "2", "--l", "1", "--grid", "0", "10", "2.5"),
        ("fock-map", "--delta", "1", "--grid-p", "0", "1", "2.5"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, args


def test_eval_rejects_non_finite_point():
    for point in (("nan", "0", "0"), ("0", "inf", "0")):
        proc = run_cli("eval", "momentum", "--n", "1", "--l", "0", "--m", "0",
                       "--point", *point)
        assert proc.returncode == 2
        assert "--point" in proc.stderr and not proc.stdout


def test_far_points_print_the_underflowed_values():
    # the true values are finite there: 0 for the wavefunctions, y4 = 1
    for kind in ("position", "momentum"):
        proc = run_cli("eval", kind, "--n", "2", "--l", "1", "--m", "0",
                       "--point", "1e200", "0", "0")
        assert proc.returncode == 0 and not proc.stderr
        assert proc.stdout.splitlines()[1].split(",")[-3:] == ["0", "0", "0"]
    proc = run_cli("table", "radial", "--n", "3", "--l", "0", "--grid", "0", "1e200", "3")
    assert proc.returncode == 0 and not proc.stderr
    assert [row.split(",")[1] for row in proc.stdout.splitlines()[2:]] == ["0", "0"]
    proc = run_cli("table", "fock", "--delta", "1", "--grid-p", "0", "1e308", "3")
    assert proc.returncode == 0 and not proc.stderr
    assert [row.split(",")[4] for row in proc.stdout.splitlines()[1:]] == ["-1", "1", "1"]


def test_fock_table_where_p_squared_plus_delta_squared_underflows(capsys):
    # delta^2 underflows to 0 below delta = 1e-162; p = 0 is the south pole
    for argv in (["table", "fock", "--delta", "1e-200", "--grid-p", "0", "1", "3"],
                 ["fock-map", "--delta", "1e-170", "--grid", "0", "1", "2"]):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()[1:]
        assert not err and rows[0] == "0,0,0,0,-1,1"
        assert all(row.split(",")[4:] == ["1", "1"] for row in rows[1:])


def test_table_rejects_non_finite_values():
    # C_400^(400)(1) = binom(1199, 400) is beyond the largest double
    proc = run_cli("table", "gegenbauer", "--m", "400", "--a", "400", "--grid", "0.5", "1", "3")
    assert proc.returncode == 2
    assert "overflows" in proc.stderr and not proc.stdout
    proc = run_cli("table", "radial", "--n", "1", "--l", "0", "--grid", "0", "1", "nan")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_overflow_refusal_prints_only_the_usage_error():
    for args in (
        ("table", "gegenbauer", "--m", "400", "--a", "400", "--grid", "0.5", "1", "3"),
        ("table", "gegenbauer", "--m", "400", "--a", "400", "--grid", "1", "1", "1", "--format", "json"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2 and not proc.stdout
        assert "Warning" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("fockspace: error:")


def test_large_l_momentum_prints_the_value():
    # l! overflows for l > 170, and at a scalar p (p^2 + delta^2)^(l+2)
    # underflows to 0; the radial factor is then summed in logs
    proc = run_cli("eval", "momentum", "--n", "200", "--l", "150", "--m", "0",
                   "--point", "0.001", "0", "0", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    # R(p) = 2.64215789773e-30 (mpmath, 50 digits) times Y_150,0 on the equator
    ylm = specfun.spherical_harmonic(150, 0, math.pi / 2, 0.0).real
    assert json.loads(proc.stdout)["re"] == pytest.approx(2.64215789773e-30 * ylm, rel=1e-10)
    for args in (
        ("eval", "momentum", "--n", "300", "--l", "180", "--m", "0", "--point", "1", "0", "0"),
        ("table", "momentum-radial", "--n", "300", "--l", "180", "--grid", "0", "1", "3"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 0 and not proc.stderr, args
        # the true value at p = 1, 8.8e-340, underflows to 0
        assert proc.stdout.splitlines()[-1].split(",")[-1] == "0"


def test_table_missing_params_exit_code():
    for args, missing in (
        (("table", "radial", "--grid", "0", "1", "10"), "--n"),
        (("table", "radial", "--n", "2", "--l", "1"), "--grid"),
        (("table", "momentum-radial", "--n", "2", "--l", "1"), "--grid"),
        (("table", "gegenbauer", "--a", "1.5", "--m", "3"), "--grid"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, args
        assert f"needs {missing}" in proc.stderr, args


def test_verify_maps_report_schema_and_exit():
    proc = run_cli("verify", "maps", "--seed", "42")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert set(report) == {
        "suite", "cases", "passed", "failed", "seed", "elapsed_ms",
        "paper_discrepancies",
    }
    assert report["suite"] == "maps"
    assert report["seed"] == 42
    assert report["failed"] == 0
    case = report["cases"][0]
    assert set(case) == {"id", "params", "lhs", "rhs", "residual", "tolerance", "passed"}


def test_verify_clifford_has_1000_plus_cases():
    proc = run_cli("verify", "clifford", "--seed", "7")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert len(report["cases"]) >= 1000


def test_verify_tol_override_echoed():
    proc = run_cli("verify", "maps", "--tol", "ks_integral=1e-1")
    report = json.loads(proc.stdout)
    loose = [c for c in report["cases"] if c["id"].startswith("ks_integral_exp")]
    assert loose and all(c["tolerance"] == 0.1 for c in loose)


def test_verify_bad_tol_exits_2():
    proc = run_cli("verify", "maps", "--tol", "nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [("verify", "maps"), ("clifford-det",)])
def test_verify_unknown_tol_key_exits_2(command):
    proc = run_cli(*command, "--tol", "ks_integral_typo=1e-30")
    assert proc.returncode == 2
    assert "ks_integral_typo" in proc.stderr


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_verify_tol_value_not_finite_or_negative_exits_2(value):
    proc = run_cli("verify", "maps", "--tol", f"ks_integral={value}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "finite and >= 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [("verify", "maps", "--seed", "-1"),
                                     ("clifford-det", "--seed", "-5")])
def test_negative_seed_exits_2(command):
    proc = run_cli(*command)
    assert proc.returncode == 2 and not proc.stdout
    assert "--seed" in proc.stderr and "Traceback" not in proc.stderr


def test_huge_seed_runs():
    proc = run_cli("clifford-det", "--seed", str(10 ** 23))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 10 ** 23


@pytest.mark.parametrize("command", [
    ("eval", "position", "--n", "1", "--l", "0", "--m", "0", "--point", "0", "0", "0"),
    ("verify", "maps"),
])
def test_unwritable_out_exits_2(command, tmp_path):
    target = tmp_path / "missing" / "report.json"
    proc = run_cli(*command, "--out", str(target))
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"fockspace: error: cannot write --out {str(target)!r}: No such file or directory"
    )


def test_verify_nodes_out_of_range_exits_2():
    for nodes in ("0", "1", "4097"):
        proc = run_cli("verify", "hydrogen", "--nodes", nodes)
        assert proc.returncode == 2
        assert "--nodes" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_deterministic_modulo_elapsed():
    a = json.loads(run_cli("verify", "maps", "--seed", "5").stdout)
    b = json.loads(run_cli("verify", "maps", "--seed", "5").stdout)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def _without_blas_variables() -> dict:
    return {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}


def _python_lines(code: str, env: dict) -> list:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.splitlines()


_THREADS = "len(os.listdir('/proc/self/task'))"
needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


@needs_proc_tasks
def test_cli_starts_blas_with_one_thread_by_default():
    lines = _python_lines(f"import os, fockspace.cli\nprint({_THREADS})",
                          _without_blas_variables())
    assert lines == ["1"]


@needs_proc_tasks
def test_a_blas_thread_variable_the_user_set_wins():
    env = dict(_without_blas_variables(), OPENBLAS_NUM_THREADS="2")
    code = (f"import os, fockspace.cli\n"
            f"print(os.environ['OPENBLAS_NUM_THREADS'], 'MKL_NUM_THREADS' in os.environ)\n"
            f"print({_THREADS})")
    value, threads = _python_lines(code, env)
    assert value == "2 False"
    if os.cpu_count() > 1:  # OpenBLAS sizes its pool by the CPUs it sees
        assert int(threads) > 1


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    code = ("import os, numpy\nbefore = dict(os.environ)\nimport fockspace.cli\n"
            "print(dict(os.environ) == before)")
    assert _python_lines(code, _without_blas_variables()) == ["True"]


def test_verify_report_does_not_depend_on_blas_thread_count():
    # byte for byte, elapsed_ms aside: no reduction's summation order may
    # follow the number of BLAS threads.  The second run is in dev mode, where
    # an unclosed pipe of the worker pool or a fork warning would show.
    # The first run sets no thread variable, so it takes the command's
    # default of one BLAS thread.
    outputs = []
    for threads, flags in (({}, ()), ({"OPENBLAS_NUM_THREADS": "2"}, ("-X", "dev"))):
        env = dict(_without_blas_variables(), **threads)
        proc = run_cli("verify", "all", "--seed", "42", "--format", "json", env=env, flags=flags)
        assert proc.returncode == 0
        outputs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout))
    assert re.fullmatch(r"all: \d+ passed, 0 failed \(seed 42\)\n", proc.stderr), proc.stderr
    assert outputs[0] == outputs[1]


def test_clifford_det_alias_runs_subset():
    proc = run_cli("clifford-det", "--seed", "7")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["suite"] == "clifford-det"
    assert len(report["cases"]) == 1000
    assert all(c["id"].startswith("det_identity") for c in report["cases"])
    # measured, not a placeholder: 1000 determinants take well over 1 ms
    assert isinstance(report["elapsed_ms"], int) and report["elapsed_ms"] > 0


def test_verify_csv_format():
    proc = run_cli("verify", "maps", "--format", "csv", "--seed", "3")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "# suite=maps seed=3"
    assert lines[1] == "id,residual,tolerance,passed"
    assert lines[-1].startswith("# passed=")


def test_verify_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("verify", "maps", "--out", str(target))
    assert proc.returncode == 0
    report = json.loads(target.read_text())
    assert report["suite"] == "maps"


def test_verify_failure_exit_code_via_impossible_tolerance():
    # force a failure by demanding an impossible tolerance on a real case
    proc = run_cli("verify", "maps", "--tol", "ks_integral=1e-30")
    assert proc.returncode == 1


def test_verify_seed_defaults_to_42(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "maps", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == verify.DEFAULT_SEED == 42
    assert capsys.readouterr().err.endswith("(seed 42)\n")


def test_main_entry_direct():
    # the module entry point is importable and callable without a subprocess
    assert cli.main([
        "eval", "position", "--n", "1", "--l", "0", "--m", "0",
        "--point", "0", "0", "0", "--out", "/dev/null",
    ]) == 0


def test_report_roundtrip_and_counts():
    report = verify.run_verify("maps", seed=11)
    data = json.loads(report.to_json())
    # a report without non-finite numbers is written exactly as json.dumps would
    assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert data["passed"] + data["failed"] == len(data["cases"])
    assert data["passed"] == report.passed


def test_importing_the_cli_loads_no_scipy():
    # the package needs numpy alone; scipy is a test-only oracle.  eval and
    # table load only the modules they run, before and after a command.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fockspace.cli\n"
         "def loaded(pkg):\n"
         "    return sorted(m for m in sys.modules if m.split('.')[0] == pkg)\n"
         "print(loaded('scipy'), loaded('fockspace'))\n"
         "fockspace.cli.main(['eval', 'momentum', '--n', '2', '--l', '1', '--m', '0',\n"
         "                    '--point', '0.1', '0.2', '0.3', '--out', '/dev/null'])\n"
         "print(loaded('scipy'), loaded('fockspace'))"],
        capture_output=True, text=True, check=True,
    )
    only = ("[] ['fockspace', 'fockspace.cli', 'fockspace.errors', 'fockspace.hydrogen', "
            "'fockspace.specfun']")
    assert proc.stdout.splitlines() == [only, only]
