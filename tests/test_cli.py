import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldwave
from goldwave.cli import build_parser, main


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def run_json(args):
    rc, out, err = run(args)
    return rc, (json.loads(out) if out else None), err


def test_lattice_count_basic():
    rc, rep, _ = run_json(["lattice", "count", "--rect", "-0.5,0.5,-0.5,0.5", "--beta", "1"])
    assert rc == 0
    assert rep["result"]["count"] == 1
    assert rep["result"]["points"][0]["n"] == 0
    assert rep["schema_version"] == 4
    assert rep["config"]["beta"] == "1"


def test_lattice_count_points_lie_in_the_rect():
    # a thin rectangle at a large offset: the listed float coordinates of
    # its points lie inside the edges as typed
    rect = "24233395795.867126,24233395795.86736,-452225094901.6305,-452225089190.59717"
    rc, rep, _ = run_json(["lattice", "count", "--rect", rect, "--beta", "1/5"])
    assert rc == 0
    a, b, c, d = map(float, rect.split(","))
    points = rep["result"]["points"]
    assert len(points) == rep["result"]["count"] > 0
    assert all(a <= p["x"] < b and c <= p["s"] < d for p in points)


@pytest.mark.parametrize("beta", ["7/10", "0.7"])
def test_lattice_count_reads_the_rect_as_typed(beta):
    # the point (3, 0) has x = 3*7/10 = 21/10, on the closed left edge 2.1
    # as typed; the double nearest 2.1 lies above it
    rc, rep, _ = run_json(["lattice", "count", "--rect", "2.1,4,-0.3,2", "--beta", beta])
    assert rc == 0
    assert rep["result"]["count"] == 7
    assert {"n": 3, "m": 0} in [{k: p[k] for k in "nm"} for p in rep["result"]["points"]]


def test_lattice_count_rational_beta():
    rc, rep, _ = run_json(["lattice", "count", "--rect", "0,10,0,10", "--beta", "1/2"])
    assert rc == 0
    assert rep["result"]["count"] > 100  # denser than beta = 1


def test_usage_errors_exit_1():
    for args in (
        ["lattice", "count", "--rect", "1,0,0,1", "--beta", "1"],
        ["lattice", "count", "--rect", "0,1,0,1", "--beta", "0"],
        ["lattice", "count", "--rect", "0,1,0,1", "--beta", "x"],
        ["lattice", "count", "--rect", "0,1,0", "--beta", "1"],
        ["lattice", "audit", "--mode", "min", "--area", "-1"],
        ["cover", "audit", "--delta", "0"],
        ["wavelet", "check", "--family", "unknown"],
        ["nonsense"],
    ):
        rc, _, err = run(args)
        assert rc == 1, args
        assert "usage" in err.lower() or "error" in err.lower()


def test_lattice_audit_aliases():
    rc, rep, _ = run_json(
        ["lattice", "audit", "--mode", "min", "--area", "golden2", "--trials", "500"]
    )
    assert rc == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["min_count"] >= 1
    rc, rep, _ = run_json(
        ["lattice", "audit", "--mode", "max", "--area", "inv3p2a", "--trials", "500"]
    )
    assert rc == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["max_count"] <= 1


@pytest.mark.parametrize("mode, area", [("min", "golden2"), ("max", "inv3p2a"), ("min", "0.2")])
def test_audit_witnesses_reproduce_through_lattice_count(mode, area):
    rc, rep, _ = run_json(["lattice", "audit", "--mode", mode, "--area", area,
                           "--trials", "300", "--seed", "4"])
    assert rc == 0
    result = rep["result"]
    for key, count in (("witness_min", result["min_count"]), ("witness_max", result["max_count"])):
        assert all("/" in edge for edge in result[key])  # exact p/q, not a decimal
        rc, again, _ = run_json(["lattice", "count", "--rect", ",".join(result[key]),
                                 "--beta", "1"])
        assert (rc, again["result"]["count"]) == (0, count), key


def test_lattice_count_decimal_and_exact_edges():
    # the decimals are the shortest reprs of an audit rectangle's doubles;
    # (328, -44) has s = -44 + 328*alpha = 158.715148309965510..., inside
    # the decimal bottom edge but below the double 158.715148309965513...
    doubles = (351.45084971774736, 355.9004088570296, 158.7151483099655, 159.30352884538462)
    for rect, count in ((",".join(map(repr, doubles)), 2),
                        (",".join("%d/%d" % e.as_integer_ratio() for e in doubles), 1)):
        rc, rep, _ = run_json(["lattice", "count", "--rect", rect, "--beta", "1"])
        assert (rc, rep["result"]["count"]) == (0, count)


def test_cover_audit_pass_and_empty_reporting():
    rc, rep, _ = run_json(["cover", "audit", "--delta", "0.5", "--k", "-20:20", "--l", "-5:5"])
    assert rc == 0
    assert rep["result"]["passed"] is True
    # oversized beta: empty cells reported, still exit 0 (reporting tool)
    rc, rep, _ = run_json(
        ["cover", "audit", "--delta", "0.5", "--beta", "10", "--k", "-5:5", "--l", "-2:2"]
    )
    assert rc == 0
    assert rep["result"]["empty_cell_total"] > 0
    assert rep["result"]["passed"] is False


def test_cover_audit_counts_every_empty_cell():
    # audit_cover records only the first 100 empty cells; the total must
    # still count all of them
    rc, rep, _ = run_json(["cover", "audit", "--delta", "1.0", "--beta", "3.0",
                           "--k", "-200:200", "--l", "-5:5"])
    assert rc == 0
    result = rep["result"]
    assert result["empty_cell_total"] == result["histogram"]["0"] > 1000
    assert len(result["empty_cells"]) == 100


def test_wavelet_check():
    rc, rep, _ = run_json(["wavelet", "check", "--family", "cauchy", "--order", "6"])
    assert rc == 0
    assert rep["result"]["passed"] is True
    assert abs(rep["result"]["admissibility_constant"] - 1.0) < 1e-6
    rc, rep, _ = run_json(["wavelet", "check", "--family", "cauchy", "--order", "3"])
    assert rc == 0
    assert rep["result"]["constructible"] is False
    assert rep["result"]["passed"] is False


_IMPORT_GUARD = """
import contextlib, io, sys
import goldwave, goldwave.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert goldwave.cli.main(list(argv)) == 0, argv

run("lattice", "count", "--rect", "0,10,0,10", "--beta", "1")
run("cover", "audit", "--delta", "0.5", "--k", "-5:5", "--l", "-2:2")
run("wavelet", "check", "--family", "cauchy", "--order", "6")
loaded = [m for m in ("scipy.integrate", "scipy.linalg") if m in sys.modules]
assert not loaded, loaded
run("frame", "estimate", "--scheme", "golden", "--n", "128")
assert "scipy.linalg" in sys.modules, "the frame-bound solve did not load zherk"
"""


def test_scipy_loads_only_for_the_frame_bound_solve():
    # importing scipy costs a fresh process 0.5 s, so only estimate_bounds
    # loads it, on first use; checked in a fresh interpreter
    src = str(Path(goldwave.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_frame_estimate_and_rank_deficiency():
    base = ["frame", "estimate", "--scheme", "golden", "--n", "1024",
            "--duration", "1024", "--smax", "0.1"]
    rc, rep, _ = run_json(base + ["--delta", "0.35"])
    assert rc == 0
    assert rep["result"]["converged"] is True
    assert rep["result"]["A"] > 0
    rc, rep, _ = run_json(base + ["--delta", "0.35", "--beta", "20"])
    assert rc == 2  # numerical failure: distinct from usage errors
    # the row frame compare prints for a rank-deficient set
    result = rep["result"]
    assert (result["points"], result["A"], result["B"], result["ratio"]) == (0, 0.0, "nan", "inf")
    assert result["converged"] is False
    assert "structurally zero" in result["diagnostics"]["error"]


def test_default_dyadic_estimate_converges():
    # at base 2 the default dyadic set had fewer points than band dimensions
    for n in ("512", "1024"):
        rc, rep, _ = run_json(["frame", "estimate", "--scheme", "dyadic", "--n", n])
        assert rc == 0 and rep["result"]["converged"] is True
        assert rep["config"]["a"] == 2.0**0.25 and rep["result"]["provenance"]["a"] == 2.0**0.25


def test_frame_compare_csv(tmp_path):
    args = ["frame", "compare", "--deltas", "0.5", "--n", "1024", "--duration", "1024",
            "--smax", "0.1", "--format", "csv"]
    out = tmp_path / "cmp.csv"
    rc, stdout, _ = run(args + ["--output", str(out)])
    assert (rc, stdout) == (0, "")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,scheme,beta_or_ab,points,A,B,ratio,converged"
    assert len(lines) == 3
    # without --output the same bytes, csv's \r\n line ends included, go
    # through sys.stdout
    rc, stdout, _ = run(args)
    assert rc == 0
    assert stdout.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["lattice", "count", "--rect", "0,1,0,1", "--beta", "1"],
    ["frame", "compare", "--deltas", "1.0", "--n", "512", "--smax", "0.1", "--format", "csv"],
], ids=["json", "csv"])
def test_unwritable_output_is_a_usage_error(tmp_path, argv):
    rc, out, err = run(argv + ["--output", str(tmp_path / "missing" / "x")])
    assert rc == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_csv_rejected_for_non_tables():
    rc, _, err = run(["lattice", "count", "--rect", "0,1,0,1", "--beta", "1",
                      "--format", "csv"])
    assert rc == 1
    # rejected before the handler runs: this enumeration would exit 2
    rc, out, err = run(["lattice", "count", "--rect", "0,1e9,0,1e9", "--beta", "1",
                        "--format", "csv"])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_reproducibility_byte_identical():
    args = ["lattice", "audit", "--mode", "min", "--area", "golden2",
            "--trials", "400", "--seed", "9"]
    rc1, out1, _ = run(args)
    rc2, out2, _ = run(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ndelta = 0.5\nk = -3:3\nl = -1:1\n")
    rc, rep, _ = run_json(["--config", str(cfg), "cover", "audit", "--delta", "0.25"])
    assert rc == 0
    assert rep["config"]["delta"] == 0.25  # flag wins
    assert rep["config"]["k"] == "-3:3"  # file fills the rest
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    rc, _, err = run(["--config", str(bad), "cover", "audit", "--delta", "0.25"])
    assert rc == 1
    assert "unknown config key" in err
    # flags are spelled in full: an abbreviation is not taken for --delta
    rc, out, err = run(["--config", str(cfg), "cover", "audit", "--del", "0.25"])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    # a flag wins over the file, whether --config comes before or after it
    seeded = tmp_path / "seed.cfg"
    seeded.write_text("seed = 5\ntrials = 50\n")
    audit = ["lattice", "audit", "--mode", "min", "--area", "golden2"]
    for argv in ([*audit, "--seed", "7", "--config", str(seeded)],
                 ["--config", str(seeded), *audit, "--seed", "7"],
                 ["--config", str(seeded), *audit, "--seed=7"]):
        rc, rep, _ = run_json(argv)
        assert rc == 0
        assert (rep["config"]["seed"], rep["config"]["trials"]) == (7, 50)
    rc, rep, _ = run_json(["--config", str(seeded), *audit])
    assert rep["config"]["seed"] == 5


def test_config_file_supplies_a_required_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.5\nk = -3:3\nl = -1:1\n")
    for argv in (["--config", str(cfg), "cover", "audit"],
                 ["cover", "audit", f"--config={cfg}"]):
        rc, rep, _ = run_json(argv)
        assert rc == 0
        assert rep["config"]["delta"] == 0.5
    rc, rep, _ = run_json(["--config", str(cfg), "cover", "audit", "--delta", "0.25"])
    assert rc == 0
    assert rep["config"]["delta"] == 0.25  # an explicit flag still wins
    # without the file, the flag is required
    rc, out, err = run(["cover", "audit", "--k", "-3:3", "--l", "-1:1"])
    assert (rc, out) == (1, "") and "--delta" in err


def test_config_none_default_keys_take_the_flag_type(tmp_path):
    cfg = tmp_path / "cover.cfg"
    cfg.write_text("beta = 0.3\nk = -3:3\nl = -1:1\n")
    rc, rep, _ = run_json(["--config", str(cfg), "cover", "audit", "--delta", "0.5"])
    assert rc == 0
    assert rep["config"]["beta"] == 0.3  # float flag, default None
    assert rep["result"]["beta"] == 0.3
    cfg = tmp_path / "frame.cfg"
    cfg.write_text("duration = 128\nn = 128\nsmax = 0.5\n")
    rc, rep, _ = run_json(["--config", str(cfg), "frame", "estimate", "--scheme", "golden",
                           "--delta", "1.0"])
    assert rc in (0, 2)
    assert rep["config"]["duration"] == 128.0
    assert rep["config"]["n"] == 128
    for text in ("beta = many\n", "format = xml\n", "command = frame\n"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc, _, err = run(["--config", str(bad), "cover", "audit", "--delta", "0.5"])
        assert rc == 1, text
        assert err.count("\n") == 1 and text.split()[0] in err
    # a config key can never act (--config is always in argv): refused at its line
    bad.write_text("k = -3:3\nconfig = other.cfg\n")
    rc, out, err = run(["--config", str(bad), "cover", "audit", "--delta", "0.5"])
    assert (rc, out) == (1, "") and err.count("\n") == 1 and f"{bad}:2:" in err


def test_removed_flags_are_usage_errors():
    for flag in ("--iters", "--threads"):
        rc, out, err = run(["frame", "estimate", "--scheme", "golden", "--n", "128",
                            flag, "2"])
        assert rc == 1, flag
        assert out == ""
        assert err.count("\n") == 1 and flag in err
    # --seed is read by lattice audit alone (the frame commands accept it and
    # ignore it), --format by frame compare alone
    commands = {"lattice count": "--rect 0,1,0,1 --beta 1",
                "lattice audit": "--mode min --area 1 --trials 5",
                "cover audit": "--delta 1 --k 0:1 --l 0:1",
                "wavelet check": "--family cauchy",
                "frame estimate": "--scheme golden --n 128"}
    misplaced = [f"{cmd} {flags} --format json".split() for cmd, flags in commands.items()]
    misplaced += [f"{cmd} {commands[cmd]} --seed 3".split()
                  for cmd in ("lattice count", "cover audit", "wavelet check")]
    misplaced.append("--seed 3 lattice audit --mode min --area 1 --trials 5".split())
    for argv in misplaced:
        rc, out, err = run(argv)
        assert (rc, out) == (1, ""), argv
        assert err.startswith("usage error: ") and err.count("\n") == 1
    # -v was parsed and never read; it returns with the stage timers
    rc, out, err = run(["-v", "lattice", "count", "--rect", "0,1,0,1", "--beta", "1"])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_parser_is_shared_and_unchanged_by_an_error():
    good = ["lattice", "count", "--rect", "-0.5,0.5,-0.5,0.5", "--beta", "1"]
    alone = run(good)
    assert run(["lattice", "count", "--rect", "0,1,0,1", "--bogus"])[0] == 1
    assert run(["lattice", "audit", "--mode", "mid", "--area", "1"])[0] == 1
    assert run(good) == alone
    assert build_parser() is build_parser()


def test_enumeration_cap_exits_2_with_one_line():
    rc, out, err = run(["lattice", "count", "--rect", "0,1e9,0,1e9", "--beta", "1"])
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and "cap" in err
    assert "Traceback" not in err


def test_audit_over_cap_exits_2_without_int64_wrap():
    # boxes of ~1e300 candidates must be sized before any int64 cast, which would wrap
    rc, out, err = run(["lattice", "audit", "--mode", "min", "--area", "1e300",
                        "--trials", "10"])
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and "cap" in err


@pytest.mark.parametrize("argv, status", [
    ("lattice count --beta 1 --rect 0,inf,0,1", 1),
    ("lattice count --beta 1 --rect nan,1,0,1", 1),
    ("lattice count --beta 1 --rect 0,1e400,0,1", 1),
    # an exponent refused before it is expanded into a power of ten
    ("lattice count --beta 1 --rect 0,1e-999999999,0,1", 1),
    ("lattice count --beta 1 --rect 0,1e300,0,1", 2),
    ("lattice count --beta 1e-300 --rect 0,1,0,1", 2),
    ("lattice audit --mode min --area golden2 --aspect 1:inf", 1),
    ("lattice audit --mode min --area golden2 --window inf", 1),
    ("cover audit --delta 1 --k 0:1 --l 60:60", 2),
    ("cover audit --delta 1 --k 0:1 --l -2000:-1999", 2),
    ("cover audit --delta inf", 1),
    # a Cauchy profile beyond the float range, with no numpy RuntimeWarning
    ("wavelet check --family cauchy --order 400", 1),
    # bump widths whose squares leave the float range, with no OverflowError
    # traceback and no numpy RuntimeWarning
    ("wavelet check --family gaussian_bump --width 1e300", 1),
    ("wavelet check --family gaussian_bump --center 1e200 --width 1e200", 1),
    ("wavelet check --family gaussian_bump --width 1e-300", 1),
    # 2.0**octaves and 2.0**guard beyond the float range
    ("frame estimate --scheme golden --n 128 --octaves 2000", 1),
    ("frame compare --deltas 1 --n 128 --guard 2000", 1),
    ("frame compare --deltas 1 --n 128 --guard -2000", 1),
    # dyadic scales or points, and audit rectangles, over the cap: refused
    # before any loop or allocation
    ("frame estimate --scheme dyadic --n 64 --a 1.0000000001", 2),
    ("frame estimate --scheme dyadic --n 64 --b 1e-300", 2),
    ("lattice audit --mode max --area 1 --trials 1000000000", 2),
    # audit rectangle sides that round to 0 at the centre range, or overflow
    ("lattice audit --mode max --area 1e-300 --trials 10", 2),
    ("lattice audit --mode min --area 1e308 --trials 10", 2),
    # an 8 PiB model: larger than the address space, so it fails at once
    (f"frame estimate --scheme golden --n {2**50}", 2),
])
def test_non_finite_and_unreachable_inputs(argv, status):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(argv.split())
    assert rc == status
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("usage error: " if status == 1 else "numerical error: ")


def test_frame_scales_far_below_the_band_are_not_an_error():
    # 1023 octaves put most dyadic atoms where the Cauchy profile's power of
    # xi overflows; those atoms are 0, with no numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = "frame estimate --scheme dyadic --a 2 --n 128 --octaves 1023".split()
        rc, rep, err = run_json(argv)
    assert (rc, err) == (0, "")
    assert rep["result"]["points"] == 1023
    assert rep["result"]["converged"] is True


def test_failed_eigensolve_is_a_numerical_error(monkeypatch):
    # numpy's LinAlgError, which scipy.linalg raises too, is a ValueError,
    # but no usage error
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    rc, out, err = run("frame estimate --scheme golden --n 128".split())
    assert (rc, out) == (2, "")
    assert err == "numerical error: Eigenvalues did not converge\n"


def test_failed_cholesky_test_is_an_unconverged_report(monkeypatch):
    # a bracket that cannot be proved is a result, converged: false with
    # exit 2 and the whole report, not a numerical error
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf", lambda a, **kwargs: (a, 1))
    rc, rep, err = run_json("frame estimate --scheme golden --n 128".split())
    assert (rc, err) == (2, "")
    result = rep["result"]
    assert result["converged"] is False
    assert result["A"] > 0
    assert result["diagnostics"]["A_lo"] == "-inf"
    assert result["diagnostics"]["B_hi"] == "inf"


def test_frame_estimate_brackets_its_bounds():
    rc, rep, _ = run_json("frame estimate --scheme golden --n 1024 --smax 0.1".split())
    result = rep["result"]
    diag = result["diagnostics"]
    assert rc == 0 and result["converged"] is True
    assert 0 < diag["A_lo"] <= result["A"] <= result["B"] <= diag["B_hi"]
    assert result["A"] - diag["A_lo"] <= 1e-8 * result["B"]
    assert diag["B_hi"] - result["B"] <= 1e-8 * result["B"]
    assert set(diag) == {"method", "A_lo", "B_hi", "resolution_floor"}


# values for any numeric flag: valid, extreme, non-finite and malformed
NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "2.5", "37", "1e-300", "1e300",
                           "inf", "-inf", "nan", "x", "", "1/2"])
RANGES = (st.builds(lambda lo, span: f"{lo}:{lo + span}", st.integers(-40, 40),
                    st.integers(-1, 8))
          | st.sampled_from(["60:60", "-2000:-1999", "800:801", f"0:{10**20}", "a:b", "1"]))
RECTS = (st.builds(lambda x, w, y, h: f"{x},{x + w / 4},{y},{y + h / 4}",
                   st.integers(-50, 50), st.integers(1, 20), st.integers(-50, 50),
                   st.integers(1, 20))
         | st.lists(NUMBERS, min_size=3, max_size=5).map(",".join))


def values(*valid):
    """A flag's values: typical ones or anything from NUMBERS."""
    return st.sampled_from(valid) | NUMBERS


def command(words, required, optional):
    """argv of a command: each required flag, any subset of the optional
    ones, with values drawn from their strategies."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: words + [tok for flag, value in d.items() for tok in (f"--{flag}", value)])


COUNTING_ARGV = st.one_of(
    command(["lattice", "count"], {"rect": RECTS, "beta": values("1", "0.5", "3/2")}, {}),
    command(["lattice", "audit"],
            {"mode": st.sampled_from(["min", "max", "mid"]),
             "area": values("golden2", "inv3p2a", "0.3", "37"),
             "trials": st.sampled_from(["-1", "0", "1", "40", "1e3", "x"])},
            {"aspect": values("0.001:1000", "1e-5:1e5", "1:1")
                       | st.tuples(NUMBERS, NUMBERS).map(":".join),
             "window": values("1000", "1e6"), "seed": st.sampled_from(["0", "7", "-3"])}),
    command(["cover", "audit"], {"delta": values("0.25", "1.0", "3")},
            {"beta": values("0.3", "10"), "k": RANGES, "l": RANGES}),
)


@settings(deadline=None, max_examples=300)
@given(COUNTING_ARGV)
def test_counting_commands_fuzz(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc:
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        result = json.loads(out)["result"]
        counts = [v for k, v in result.items() if k in ("count", "min_count", "max_count")]
        counts += [int(k) for k in result.get("histogram", {})]
        assert counts and min(counts) >= 0


def test_output_file(tmp_path):
    out = tmp_path / "rep.json"
    rc, stdout, _ = run(["lattice", "count", "--rect", "0,1,0,1", "--beta", "1",
                         "--output", str(out)])
    assert rc == 0
    assert stdout == ""
    rep = json.loads(out.read_text())
    assert rep["result"]["count"] == 1


def test_resolved_config_embedded():
    rc, rep, _ = run_json(["cover", "audit", "--delta", "0.5", "--k", "-2:2", "--l", "-1:1"])
    assert rc == 0
    # defaulted values appear in the provenance block, and only the command's own flags
    assert rep["config"]["beta"] is None
    assert "seed" not in rep["config"] and "format" not in rep["config"]
    rc, rep, _ = run_json(["lattice", "audit", "--mode", "min", "--area", "1", "--trials", "5"])
    assert rc == 0 and rep["config"]["seed"] == 0 and "format" not in rep["config"]
    rc, rep, _ = run_json(["frame", "compare", "--deltas", "1", "--n", "128", "--smax", "0.5"])
    assert rep["config"]["format"] == "json"
