import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newton_calc import builder
from newton_calc.cli import EXIT_OK, EXIT_USAGE, main


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
    lambda text: text.replace('"cauchy_delta"', '"other"'),
    lambda text: text.replace('"k": ', '"k": 1'),
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
    "fubini --case counterexample --X 0.5",
    "fubini --case rect --bounds 0 1 0 inf",
    "sumint --function-id log --a 5 --b 2",
    "wallis --n-max -3",
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
    _, a = run_cli("wallis", "--n-max", "6")
    monkeypatch.setenv("NEWTON_CALC_THREADS", "4")
    _, b = run_cli("wallis", "--n-max", "6")
    assert a == b


def test_thread_pool_is_capped_at_the_row_count(monkeypatch):
    from newton_calc import cli

    sizes = []

    class RecordingPool:
        # runs the rows serially; only the requested pool size is recorded
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("NEWTON_CALC_THREADS", "100000")
    assert cli._map_rows(lambda n: n * n, [1, 2, 3]) == [1, 4, 9]
    assert sizes == [3]


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "newton_calc", "gamma", "--n", "6"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK
    assert ",720," in proc.stdout


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
