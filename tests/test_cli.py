import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from newton_calc import builder, fubini
from newton_calc.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_stirling_both_methods():
    code, text = run_cli("stirling", "--n", "10", "--method", "both")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,method,")
    assert len(lines) == 3
    assert all(line.endswith("true") for line in lines[1:])


def test_stirling_n_one_exact_row():
    code, text = run_cli("stirling", "--n", "1", "--method", "sum")
    assert code == EXIT_OK
    row = text.strip().splitlines()[1].split(",")
    assert row[0] == "1" and row[2] == "0"  # log 1! is exactly zero


def test_stirling_json_schema():
    code, text = run_cli("stirling", "--n", "10", "--method", "sum",
                         "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["command"] == "stirling"
    assert isinstance(doc["rows"], list) and doc["rows"][0]["n"] == 10


def test_gauss_row():
    code, text = run_cli("gauss")
    assert code == EXIT_OK
    header, row = text.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["value"]) - math.sqrt(math.pi)) <= 1e-8
    assert float(fields["residual"]) < 1e-9
    assert fields["within_tolerance"] == "true"


def test_gauss_json_stable():
    _, a = run_cli("gauss", "--format", "json")
    _, b = run_cli("gauss", "--format", "json")
    assert a == b
    assert json.loads(a)["schema_version"] == 1


def test_wallis_table():
    code, text = run_cli("wallis", "--n-max", "10")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert len(lines) == 12
    assert all(line.endswith("true") for line in lines[1:])


def test_gamma_exact():
    code, text = run_cli("gamma", "--n", "5")
    assert code == EXIT_OK
    assert ",120," in text


def test_gamma_exact_n_100():
    code, text = run_cli("gamma", "--n", "100")
    assert code == EXIT_OK
    assert text.strip().endswith(",true")


def test_sumint_log():
    code, text = run_cli("sumint", "--function-id", "log",
                         "--a", "1", "--b", "50")
    assert code == EXIT_OK
    row = text.strip().splitlines()[1]
    theta = float(row.split(",")[5])
    assert 0.0 <= theta <= 1.0


@pytest.mark.parametrize("argv", [
    "sumint --function-id reciprocal-square --a -1 --b 3",
    "sumint --function-id log --a 0 --b 10",
])
def test_sumint_through_a_singular_point_exits_2(capsys, argv):
    code = main(argv.split(), out=io.StringIO())
    err = capsys.readouterr().err
    assert code == EXIT_CHECK_FAILED
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("newton-calc: ") and "at x=0.0" in line


def test_integrate_on_a_subnormal_interval():
    # (b - a) / 256 is subnormal: the probe grid must not round past b
    code, text = run_cli("integrate", "--function-id", "exp-neg-square",
                         "--lo", "0", "--hi", "1e-320")
    assert code == EXIT_OK
    value = float(text.strip().splitlines()[1].split(",")[3])
    assert abs(value - 1e-320) <= 1e-3 * 1e-320


def test_integrate_cos():
    code, text = run_cli("integrate", "--function-id", "cos",
                         "--lo", "0", "--hi", "1.5707963")
    assert code == EXIT_OK
    value = float(text.strip().splitlines()[1].split(",")[3])
    assert abs(value - 1.0) <= 1e-6


def test_integrate_closed_form_on_ray():
    code, text = run_cli("integrate", "--function-id", "exp-neg",
                         "--lo", "0", "--hi", "inf")
    assert code == EXIT_OK
    value = float(text.strip().splitlines()[1].split(",")[3])
    assert abs(value - 1.0) <= 1e-9


def test_integrate_built_antiderivative_cache(tmp_path):
    args = ("integrate", "--function-id", "exp-neg-square",
            "--lo", "0", "--hi", "1", "--cache-dir", str(tmp_path))
    code, first = run_cli(*args)
    assert code == EXIT_OK
    blobs = list(tmp_path.iterdir())
    assert len(blobs) == 1
    code, second = run_cli(*args)
    assert second == first


@pytest.mark.parametrize("corrupt", [
    lambda text: text[:len(text) // 2],
    lambda text: "[]",
    lambda text: text.replace(f'"version": {builder.SERIALIZATION_VERSION}',
                              '"version": 99'),
    lambda text: text.replace('"gap_history"', '"other"'),
    lambda text: text.replace('"pieces": [[',
                              '"pieces": [[0.0, 0.0, 0.0, 0.0], ['),
    lambda text: text.replace('"breakpoints": [0.0, ', '"breakpoints": ['),
], ids=["truncated", "not-an-object", "wrong-version", "missing-key",
        "piece-table-mismatch", "breakpoint-count-mismatch"])
def test_unreadable_cache_blob_is_rebuilt(tmp_path, corrupt):
    base = ("integrate", "--function-id", "exp-neg-square",
            "--lo", "0", "--hi", "1")
    _, uncached = run_cli(*base)
    run_cli(*base, "--cache-dir", str(tmp_path))
    [blob] = list(tmp_path.iterdir())
    text = blob.read_text()
    assert corrupt(text) != text
    blob.write_text(corrupt(text))
    code, rerun = run_cli(*base, "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert rerun == uncached
    assert [p.name for p in tmp_path.iterdir()] == [blob.name]
    assert blob.read_text() == text


BUILT_INTEGRAL = ("integrate", "--function-id", "exp-neg-square",
                  "--lo", "0", "--hi", "1")


def _usage_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("newton-calc: ") and err.count("\n") == 1
    return err


def test_cache_dir_that_is_a_file_exits_64(tmp_path, capsys):
    not_a_dir = tmp_path / "blob"
    not_a_dir.write_text("")
    code, text = run_cli(*BUILT_INTEGRAL, "--cache-dir", str(not_a_dir))
    assert code == EXIT_USAGE and text == ""
    assert str(not_a_dir) in _usage_line(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["blob"]


def test_cache_key_that_is_a_directory_exits_64(tmp_path, capsys):
    run_cli(*BUILT_INTEGRAL, "--cache-dir", str(tmp_path))
    [blob] = list(tmp_path.iterdir())
    blob.unlink()
    blob.mkdir()
    code, text = run_cli(*BUILT_INTEGRAL, "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE and text == ""
    assert str(blob) in _usage_line(capsys)
    assert [p.name for p in tmp_path.iterdir()] == [blob.name]


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys,
                                                monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    code, text = run_cli(*BUILT_INTEGRAL, "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE and text == ""
    assert str(tmp_path) in _usage_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fid, domain", [
    ("reciprocal-square", "(-inf, 0.0) or (0.0, inf)"),
    ("log", "(0.0, inf)"),
])
def test_integral_outside_the_primitive_domain_exits_64(capsys, fid, domain):
    # -1/x is no primitive of 1/x^2 across 0, and log has none below 0:
    # a value there would be wrong, not merely inaccurate
    code, text = run_cli("integrate", "--function-id", fid,
                         "--lo=-1", "--hi", "1")
    [line] = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and text == ""
    assert line == (f"newton-calc: (-1.0, 1.0) lies outside the domain of "
                    f"{fid!r}: {domain}")


@pytest.mark.parametrize("argv, value", [
    (("reciprocal-square", "--lo=-3", "--hi=-1"), 2.0 / 3.0),
    (("log", "--lo", "0", "--hi", "1"), -1.0),
])
def test_integral_inside_a_primitive_domain(argv, value):
    code, text = run_cli("integrate", "--function-id", *argv)
    assert code == EXIT_OK
    assert abs(float(text.splitlines()[1].split(",")[3]) - value) <= 1e-9


def test_unknown_function_exits_64():
    code, _ = run_cli("integrate", "--function-id", "nope",
                      "--lo", "0", "--hi", "1")
    assert code == EXIT_USAGE


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("stirling")  # missing required --n
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    "integrate --function-id cos --lo 1 --hi 0",
    "gamma --n -1",
    "gamma --n 169 --mode numeric",
    "stirling --n 0",
    "fubini --case special --b 0.5",
    "fubini --case special --b 65",
    "fubini --case counterexample --X 0.5",
    "fubini --case rect --bounds 0 1 0 inf",
    "sumint --function-id log --a 5 --b 2",
    "wallis --n-max -3",
    "integrate --function-id reciprocal-square --lo=-1 --hi 1",
    "integrate --function-id log --lo=-1 --hi 1",
    "fubini --case decay --decay-constant -1",
    "fubini --case decay --decay-constant 0",
    "fubini --case decay --seed 1",
])
def test_out_of_range_argument_exits_64(capsys, argv):
    try:
        code = main(argv.split(), out=io.StringIO())
    except SystemExit as exc:  # rejected by the parser itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    # one diagnostic line, last, after argparse's usage where it rejected
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("newton-calc")] \
        == lines[-1:]


@pytest.mark.parametrize("argv, name", [
    ("stirling --n 3 --epsilon x", "epsilon"),
    ("integrate --function-id cos --lo x --hi 1", "bound"),
])
def test_bad_value_message_names_no_private_function(capsys, argv, name):
    with pytest.raises(SystemExit) as info:
        main(argv.split(), out=io.StringIO())
    err = capsys.readouterr().err
    assert info.value.code == EXIT_USAGE
    assert f"invalid {name} value: 'x'" in err
    assert "_parse" not in err


def test_fubini_special():
    code, text = run_cli("fubini", "--case", "special", "--b", "4")
    assert code == EXIT_OK
    assert text.strip().splitlines()[1].endswith("true")


def test_fubini_counterexample():
    code, text = run_cli("fubini", "--case", "counterexample", "--X", "100")
    assert code == EXIT_OK
    row = text.strip().splitlines()[1].split(",")
    assert float(row[3]) >= 90.0  # divergence witness


def test_fubini_counterexample_past_exp_underflow():
    # exp(-x) underflows from x = 745.13 on; the ridge excess there is 0
    X = 800.0
    code, text = run_cli("fubini", "--case", "counterexample", "--X", str(X))
    assert code == EXIT_OK
    value_xy = float(text.strip().splitlines()[1].split(",")[2])
    assert 1.0 - math.exp(-X) <= value_xy <= 2.0 * (1.0 - math.exp(-X))


def test_fubini_decay_exits_on_the_reports_verdict(monkeypatch):
    # the handler imports the function when it runs, so patch its module
    real = fubini.decay_bounded_fubini

    def refuted(*args, **kwargs):
        rep, history = real(*args, **kwargs)
        return dataclasses.replace(rep, holds=False), history

    monkeypatch.setattr(fubini, "decay_bounded_fubini", refuted)
    code, text = run_cli("fubini", "--case", "decay", "--function-id",
                         "inverse-quartic", "--schedule", "4", "8")
    # every row agrees; the exit code is the report's
    assert all(line.endswith("true") for line in text.splitlines()[1:])
    assert code == EXIT_CHECK_FAILED


def test_fubini_rect():
    code, text = run_cli("fubini", "--case", "rect",
                         "--function-id", "plane",
                         "--bounds", "0", "1", "0", "2")
    assert code == EXIT_OK
    row = text.strip().splitlines()[1].split(",")
    assert abs(float(row[2]) - 3.0) <= 1e-8


def test_determinism_byte_identical():
    _, a = run_cli("stirling", "--n", "10", "100", "--method", "sum")
    _, b = run_cli("stirling", "--n", "10", "100", "--method", "sum")
    assert a == b


def test_determinism_across_thread_counts(monkeypatch):
    # rows are computed in order on one thread; a leftover thread-count
    # variable changes nothing
    _, a = run_cli("wallis", "--n-max", "6")
    monkeypatch.setenv("NEWTON_CALC_THREADS", "4")
    _, b = run_cli("wallis", "--n-max", "6")
    assert a == b


# a sitecustomize that prints OPENBLAS_NUM_THREADS as numpy is first imported
NUMPY_IMPORT_SPY = """\
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":  # asked once: then it is in sys.modules
            print("OPENBLAS_NUM_THREADS at numpy import:",
                  os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)

sys.meta_path.insert(0, Spy())
"""


def _run_module(tmp_path, preset):
    """stderr of `-m newton_calc gamma --n 6` under the numpy import spy."""
    (tmp_path / "sitecustomize.py").write_text(NUMPY_IMPORT_SPY)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), src] + ([env["PYTHONPATH"]]
                                if env.get("PYTHONPATH") else []))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-m", "newton_calc", "gamma", "--n", "6"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK
    assert ",720," in proc.stdout
    return proc.stderr


def test_module_entry_point_subprocess(tmp_path):
    # the CLI asks for one BLAS thread before numpy loads
    assert _run_module(tmp_path, None) == \
        "OPENBLAS_NUM_THREADS at numpy import: 1\n"


def test_module_entry_point_keeps_a_preset_blas_thread_count(tmp_path):
    assert _run_module(tmp_path, "2") == \
        "OPENBLAS_NUM_THREADS at numpy import: 2\n"


def test_console_script_takes_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"newton-calc": "newton_calc.__main__:main"}


# each command loads the modules it calls and no others; every command
# loads cli, core, engine and functions
FOOTPRINTS = {
    ("--help",): set(),
    ("integrate", "--function-id", "cos", "--lo", "0", "--hi", "1.5707963"):
        set(),
    ("sumint", "--function-id", "log", "--a", "1", "--b", "100"): {"sums"},
    ("integrate", "--function-id", "exp-neg-square", "--lo", "0", "--hi", "1"):
        {"builder"},
    ("fubini", "--case", "rect", "--function-id", "plane",
     "--bounds", "0", "1", "0", "2"): {"builder", "fubini"},
    ("stirling", "--n", "10", "100", "1000", "--method", "both"):
        {"builder", "sums", "laplace"},
    ("gauss", "--format", "json"): {"builder", "sums", "laplace"},
    ("gamma", "--n", "12", "--mode", "numeric"): {"builder", "sums", "laplace"},
    ("wallis", "--n-max", "30"): {"builder", "sums", "wallis"},
}

LOADED_MODULES = """\
import io, json, sys
from newton_calc.cli import main
try:
    main(sys.argv[1:], out=io.StringIO())
except SystemExit:  # --help, after the usage
    pass
print(json.dumps([m for m in sys.modules if m.startswith("newton_calc.")]))
"""


def test_each_command_loads_only_the_modules_it_calls():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def loaded(argv):
        proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.splitlines()[-1]
        return {m.rpartition(".")[2] for m in json.loads(last)}

    # two fresh interpreters at a time
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = dict(zip(FOOTPRINTS, pool.map(loaded, FOOTPRINTS)))
    base = {"cli", "core", "engine", "functions"}
    assert got == {argv: base | extra for argv, extra in FOOTPRINTS.items()}


def test_negative_infinite_bound_in_equals_form():
    code, text = run_cli("integrate", "--function-id", "inverse-quadratic",
                         "--lo=-inf", "--hi", "inf")
    assert code == EXIT_OK
    assert text.splitlines()[1].split(",")[3] == "3.14159265358979"


def test_negative_bound_as_separate_token_is_one_line_usage_error(capsys):
    # argparse takes "-inf" for an option; the one stderr line says how to
    # write it instead
    with pytest.raises(SystemExit) as info:
        main("integrate --function-id inverse-quadratic --lo -inf "
             "--hi inf".split(), out=io.StringIO())
    err = capsys.readouterr().err
    assert info.value.code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert "--lo=-inf" in err
