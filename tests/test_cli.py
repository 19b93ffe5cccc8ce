import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT, SPECTRA_DIR

HARMONIC = str(SPECTRA_DIR / "harmonic_n5.json")
SKEWED = str(SPECTRA_DIR / "skewed_n5.json")
SQUARES = str(SPECTRA_DIR / "squares_n5.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qclock", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def write_spectrum(tmp_path, payload):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(payload))
    return str(path)


ROOT_TWO = {"n": 3, "energies": [0.0, 1.0, 1.4142135623730951]}
# the nearest p/q with q <= 10**6 is 2/1, 1e-8 away: NotCommensurable at the defaults
OFF_LATTICE = {"n": 3, "energies": [0.0, 1.0, 2.00000001]}
DEGENERATE = {"n": 3, "energies": [1, 1, 1]}
FLOAT_ENTRIES = {"n": 5, "energies": [0.0, 0.2, 0.4, 0.6, 0.8]}


def test_analyze_harmonic():
    proc = run_cli("analyze", "--spectrum", HARMONIC)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["compatible"] is True
    assert report["k"] == 1
    assert report["omega"] == "1/1"
    assert abs(report["delta_tau"] - 1.2566370614) < 1e-9
    assert report["f"] == [0, 0, 0, 0, 0]
    notes = report["convention_notes"]
    assert (
        notes["commutation_sign"]
        == notes["shift_direction_sign"]
        == notes["weyl_pair_sign"]
        == -1
    )


def test_analyze_skewed_rational_strings():
    proc = run_cli("analyze", "--spectrum", SKEWED)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["compatible"] is True
    assert report["k"] == 2
    assert report["f"] == [0, 1, 4, 9, 16]


def test_analyze_incompatible_still_reports():
    proc = run_cli("analyze", "--spectrum", SQUARES)
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["compatible"] is False
    cert = report["certificate"]
    assert cert["reason"] == "ResiduesNotLinear"
    assert cert["residues"] == [0, 1, 4, 4, 1]
    assert cert["first_bad_index"] == 2


def test_analyze_text_format():
    proc = run_cli("analyze", "--spectrum", HARMONIC, "--format", "text")
    assert proc.returncode == 0
    assert "compatible: yes" in proc.stdout
    assert "delta_tau: 1.25663706144" in proc.stdout


def test_analyze_shift_ground(tmp_path):
    payload = {"n": 5, "energies": [1, 2, 3, 4, 5]}
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("analyze", "--spectrum", str(path), "--shift-ground")
    # raw spectrum fails (ground residue 1), the shifted one is the harmonic ladder
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["compatible"] is False
    assert report["shifted"]["compatible"] is True
    assert report["shifted"]["k"] == 1


def test_analyze_not_commensurable(tmp_path):
    path = write_spectrum(tmp_path, ROOT_TWO)
    proc = run_cli(
        "analyze", "--spectrum", path, "--tolerance", "1e-12", "--max-denominator", "1000",
        "--shift-ground",
    )
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["compatible"] is False
    cert = report["certificate"]
    assert cert["reason"] == "NotCommensurable"
    assert cert["first_bad_index"] == 2
    assert "residues" not in cert
    assert "within 1e-12 at denominators <= 1000" in cert["detail"]
    assert report["rationalization_residuals"] is None
    assert report["convention_notes"]["shift_direction_sign"] is None
    assert report["shifted"] == {"compatible": False, "certificate": cert}


def test_analyze_degenerate(tmp_path):
    proc = run_cli("analyze", "--spectrum", write_spectrum(tmp_path, DEGENERATE), "--shift-ground")
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["certificate"]["reason"] == "DegenerateSpectrum"
    assert report["rationalization_residuals"] == [0.0, 0.0, 0.0]
    assert report["shifted"]["certificate"]["reason"] == "DegenerateSpectrum"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_output_integer_beyond_str_limit_is_malformed(tmp_path, fmt):
    # every input integer converts, but f = E_1/omega = 5*10**4598 does not
    path = tmp_path / "long_f.json"
    path.write_text('{"n": 3, "energies": [0, 1' + "0" * 4299 + ', "2/1' + "0" * 300 + '"]}')
    proc = run_cli("analyze", "--spectrum", str(path), "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "'f'" in proc.stderr
    assert run_cli("clock", "--spectrum", str(path), "--steps", "1").returncode == 0


def test_bad_dimension_exit_code(tmp_path):
    path = tmp_path / "even.json"
    path.write_text(json.dumps({"n": 6, "energies": [0, 1, 2, 3, 4, 5]}))
    proc = run_cli("analyze", "--spectrum", str(path))
    assert proc.returncode == 4


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"n": 5, "energies": [0, 1, 2, 3, 4], "extra": 1}, "extra"),
        ({"n": 5, "energies": [0, 1, 2]}, "energies"),
        ({"energies": [0, 1, 2]}, "n"),
        ({"n": 3, "energies": [0, 1, "1/0"]}, "energies[2]"),
        ({"n": 3, "energies": [0, 1, "x/y"]}, "energies[2]"),
        ({"n": 3, "energies": [0, True, 2]}, "energies[1]"),
        # a ratio is the whole string, in ASCII digits
        ({"n": 3, "energies": [0, 1, "1/2\n"]}, "energies[2]"),
        ({"n": 3, "energies": [0, 1, "\u0661/\u0661"]}, "energies[2]"),
    ],
)
def test_malformed_files_name_the_field(tmp_path, payload, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("analyze", "--spectrum", str(path))
    assert proc.returncode == 2
    assert needle in proc.stderr


def test_missing_file_is_malformed_input():
    proc = run_cli("analyze", "--spectrum", "no/such/file.json")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "raw,code,needle",
    [
        (b'{"n": 3, "energies": [0, 1, 2], "label": "\xff"}', 2, "not UTF-8"),
        (b'{"n": 3, "energies": ' + b"[" * 5000 + b"]" * 5000 + b"}", 2, "nested too deeply"),
        (b"\xef\xbb\xbf" + b'{"n": 3, "energies": [0, 1, 2]}', 2, "BOM"),
        (b'{"n": 1' + b"0" * 400 + b', "energies": [0, 1, 2]}', 2, "'energies'"),
        (b'{"n": 3, "energies": [0, 1, 1' + b"0" * 400 + b"]}", 3, ""),
        (b'{"n": 3, "energies": ["-0/5", 1, 2]}', 0, ""),
        (b'{"n": 3, "energies": [0, 1, 1' + b"0" * 5000 + b"]}", 2, "energies[2]"),
        (b'{"n": 3, "energies": [0, 1, "1' + b"0" * 5000 + b'/3"]}', 2, "energies[2]"),
        (b'{"n": 3, "energies": [0, 1, "1/1' + b"0" * 5000 + b'"]}', 2, "energies[2]"),
        (b'{"n": 1' + b"0" * 5000 + b', "energies": [0, 1, 2]}', 2, "'n'"),
    ],
    ids=[
        "non-utf8", "deep-nesting", "bom", "huge-n", "huge-energy", "negative-zero",
        "long-energy", "long-numerator", "long-denominator", "long-n",
    ],
)
def test_hostile_files_end_in_a_named_exit_code(tmp_path, raw, code, needle):
    path = tmp_path / "hostile.json"
    path.write_bytes(raw)
    proc = run_cli("analyze", "--spectrum", str(path))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


def test_directory_is_malformed_input(tmp_path):
    proc = run_cli("analyze", "--spectrum", str(tmp_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_clock_harmonic_sequence():
    proc = run_cli("clock", "--spectrum", HARMONIC, "--steps", "5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    occupied = [rec["occupied_index"] for rec in report["steps_records"]]
    assert occupied == [0, 4, 3, 2, 1, 0]
    assert report["direction_sign"] == -1


def test_clock_skewed_sequence_csv():
    proc = run_cli("clock", "--spectrum", SKEWED, "--steps", "5", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "j,time,occupied_index,occupied_probability,max_offsite"
    occupied = [int(line.split(",")[2]) for line in lines[1:]]
    assert occupied == [0, 3, 1, 4, 2, 0]


def test_clock_default_steps_is_two_cycles():
    proc = run_cli("clock", "--spectrum", HARMONIC)
    report = json.loads(proc.stdout)
    assert len(report["steps_records"]) == 11
    assert report["steps_records"][10]["occupied_index"] == 0


def test_clock_full_cycle_returns_home():
    proc = run_cli("clock", "--spectrum", SKEWED, "--initial", "3", "--steps", "5")
    report = json.loads(proc.stdout)
    records = report["steps_records"]
    assert records[-1]["occupied_index"] == records[0]["occupied_index"] == 3


def test_clock_incompatible_exits_three():
    proc = run_cli("clock", "--spectrum", SQUARES)
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_wigner_shift_eigenstate_column():
    proc = run_cli("wigner", "--spectrum", HARMONIC, "--state", "v:2", "--time", "0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "m\\n,0,1,2,3,4"
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")[1:]]
        assert abs(cells[2] - 1.0) < 1e-9
        assert max(abs(c) for i, c in enumerate(cells) if i != 2) < 1e-9


def test_wigner_energy_eigenstate_row_stationary():
    proc = run_cli(
        "wigner", "--spectrum", HARMONIC, "--state", "u:1", "--time", "17.3",
        "--format", "json",
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    values = np.array(report["values"])
    expected = np.zeros((5, 5))
    expected[1, :] = 1.0
    assert np.max(np.abs(values - expected)) < 1e-9


def test_wigner_mixed_state_flat():
    proc = run_cli(
        "wigner", "--spectrum", SKEWED, "--state", "mixed", "--time", "2.7",
        "--format", "json",
    )
    report = json.loads(proc.stdout)
    assert np.max(np.abs(np.array(report["values"]) - 0.2)) < 1e-9


def test_wigner_step_on_incompatible_exits_three():
    proc = run_cli("wigner", "--spectrum", SQUARES, "--state", "v:0", "--step", "1")
    assert proc.returncode == 3


def test_wigner_step_is_taken_mod_n():
    # 100000000000000002 ticks = 2 ticks (mod 5); the float product with the tick would not see it
    by_mod = run_cli("wigner", "--spectrum", SKEWED, "--state", "v:1", "--step", "2")
    by_large = run_cli("wigner", "--spectrum", SKEWED, "--state", "v:1", "--step", "100000000000000002")
    assert by_large.returncode == 0 and by_large.stdout == by_mod.stdout


def test_wigner_step_equals_time():
    tick = 2 * np.pi / 5
    by_step = run_cli("wigner", "--spectrum", HARMONIC, "--state", "v:0", "--step", "2")
    by_time = run_cli(
        "wigner", "--spectrum", HARMONIC, "--state", "v:0", "--time", repr(2 * tick)
    )
    assert by_step.stdout == by_time.stdout


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("analyze", "--max-denominator", "0"),
        ("analyze", "--tolerance", "0"),
        ("analyze", "--tolerance", "-1"),
        ("analyze", "--tolerance", "nan"),
        ("analyze", "--tolerance", "inf"),
        ("wigner", "--time", "nan"),
        ("wigner", "--time", "inf"),
        # ASCII decimal digits only: int() and float() also take other scripts' digits and "_"
        pytest.param("clock", "--initial", "\u0662", id="clock---initial-non-ascii-digit"),
        ("clock", "--steps", "1_0"),
        pytest.param("wigner", "--step", "\u0661", id="wigner---step-non-ascii-digit"),
        pytest.param("wigner", "--time", "\u0660.5", id="wigner---time-non-ascii-digit"),
        ("analyze", "--tolerance", "1_0e-3"),
        pytest.param("analyze", "--max-denominator", "\u0661\u0660", id="analyze---max-denominator-non-ascii-digits"),
    ],
)
def test_bad_numeric_flag_is_malformed(tmp_path, command, flag, value):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps({"n": 3, "energies": [0.0, 0.5, 1.0]}))
    extra = ("--state", "v:0") if command == "wigner" else ()
    proc = run_cli(command, "--spectrum", str(path), *extra, f"{flag}={value}")
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_wigner_requires_exactly_one_of_time_step():
    assert run_cli("wigner", "--spectrum", HARMONIC, "--state", "v:0").returncode == 2
    assert (
        run_cli(
            "wigner", "--spectrum", HARMONIC, "--state", "v:0",
            "--time", "0", "--step", "1",
        ).returncode
        == 2
    )


@pytest.mark.parametrize(
    "state",
    ["w:1", "v:" + "1" * 5000, "v:\u0662", "v:1\n"],
    ids=["bad-kind", "index-beyond-int-digits", "non-ascii-digit", "trailing-newline"],
)
def test_wigner_bad_state_is_malformed(state):
    proc = run_cli("wigner", "--spectrum", HARMONIC, "--state", state, "--time", "0")
    assert proc.returncode == 2
    assert "--state" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["clock", "--spectrum", HARMONIC, "--steps", "1"],
        ["clock", "--spectrum", SKEWED, "--steps", "10"],  # 2N
        ["clock", "--spectrum", SKEWED, "--steps", "1000"],
        ["verify", "--n", "5"],
        ["verify", "--n", "7", "--seed", "1093"],
        ["analyze", "--spectrum", SQUARES, "--shift-ground"],
    ],
)
def test_records_serialize_from_their_fields_as_asdict_renders_them(monkeypatch, capsys, argv):
    # each record is written from vars(rec); a deep copy by dataclasses.asdict writes the same bytes
    import dataclasses

    from qclock import cli

    code = cli.main(argv)
    by_fields = capsys.readouterr().out
    monkeypatch.setattr(cli, "vars", dataclasses.asdict, raising=False)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == by_fields


def test_wigner_csv_is_the_per_cell_fmt12_text(monkeypatch, capsys):
    from qclock import cli

    edges = [0.0, -0.0, 1e-300, -1e300, 5e-324]
    grid = np.random.default_rng(3).normal(size=(5, 5)) * np.logspace(-8, 8, 5)
    grid[0], grid[:, 4] = edges, edges
    monkeypatch.setattr(cli, "wigner_of_density", lambda basis, rho: grid.astype(complex))
    assert cli.main(["wigner", "--spectrum", HARMONIC, "--state", "v:0", "--time", "0"]) == 0
    lines = ["m\\n,0,1,2,3,4"] + [f"{m}," + ",".join(cli._fmt12(x) for x in row) for m, row in enumerate(grid)]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("cli", "run_suite", ["verify", "--n", "3"]),
        # measure_signs reads the commutation sign first
        ("verification", "measure_commutation_sign", ["analyze", "--spectrum", HARMONIC]),
    ],
)
def test_a_fault_that_is_no_qclock_error_exits_five_on_one_line(module, name, argv):
    script = (
        "import sys\n"
        f"from qclock import cli, {module}\n"
        "def fault(*args):\n"
        "    raise ZeroDivisionError('planted fault')\n"
        f"{module}.{name} = fault\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 5
    assert proc.stderr == "error: internal failure: ZeroDivisionError: planted fault\n"
    assert proc.stdout == ""


def test_verify_n3_reports_and_exit():
    proc = run_cli("verify", "--n", "3")
    report = json.loads(proc.stdout)
    names = [chk["name"] for chk in report["checks"]]
    assert names == sorted(names)
    failed = [chk["name"] for chk in report["checks"] if not chk["passed"]]
    # the perturbation-rejection invariant is not satisfiable as stated; every
    # other check must be green (see README notes)
    assert failed in ([], ["spectrum-perturbation-reject"])
    assert proc.returncode == (0 if not failed else 1)


def test_verify_rejects_composite_or_large():
    assert run_cli("verify", "--n", "9").returncode == 4
    assert run_cli("verify", "--n", "37").returncode == 4


def test_verify_large_prime_exits_before_the_primality_test():
    n = str(2**89 - 1)  # a Mersenne prime: trial division would not finish
    proc = subprocess.run(
        [sys.executable, "-m", "qclock", "verify", "--n", n],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=20,
    )
    assert proc.returncode == 4
    assert proc.stderr == f"error: --n must be an odd prime <= 31, got {n}\n"


def test_negative_seed_is_malformed():
    proc = run_cli("verify", "--n", "3", "--seed", "-1")
    assert proc.returncode == 2
    assert "--seed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--n", ("--n", "\u0665")),
        ("--n", ("--n", "3 ")),
        ("--seed", ("--n", "3", "--seed", "1_0")),
    ],
    ids=["n-non-ascii-digit", "n-trailing-space", "seed-underscore"],
)
def test_verify_numeric_flag_outside_ascii_digits_is_malformed(flag, argv):
    proc = run_cli("verify", *argv)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [("analyze",), ("clock", "--steps", "1"), ("wigner", "--state", "v:0", "--step", "1")],
    ids=["analyze", "clock", "wigner"],
)
def test_spectrum_above_the_dimension_cap_exits_four(tmp_path, argv):
    path = write_spectrum(tmp_path, {"n": 1013, "energies": list(range(1013))})
    command, *flags = argv
    proc = run_cli(command, "--spectrum", path, *flags)
    assert proc.returncode == 4
    assert proc.stderr == "error: n = 1013 is above the cap of 1009\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, code",
    [
        (("analyze", "--spectrum", HARMONIC, "--format", "text"), 0),
        (("analyze", "--spectrum", SQUARES), 3),
        (("clock", "--spectrum", HARMONIC, "--format", "csv"), 0),
        (("wigner", "--spectrum", HARMONIC, "--state", "v:1", "--step", "2"), 0),
        (("verify", "--n", "3"), 1),
    ],
)
def test_closed_stdout_pipe_keeps_the_exit_code(args, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qclock", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "args, code",
    [
        (("analyze", "--spectrum", "/nonexistent"), 2),
        (("verify", "--n", "9"), 4),
        (("clock", "--spectrum", SQUARES), 3),
    ],
)
def test_closed_stderr_pipe_keeps_the_exit_code(args, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the error message is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qclock", *args],
            stdout=subprocess.PIPE,
            stderr=write_end,
            text=True,
            cwd=REPO_ROOT,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == ""


@pytest.mark.parametrize("steps", ["0", "100001"])
def test_clock_steps_outside_the_cap_is_malformed(steps):
    proc = run_cli("clock", "--spectrum", HARMONIC, "--steps", steps)
    assert proc.returncode == 2
    assert "--steps" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_seed_changes_only_random_checks():
    a = run_cli("verify", "--n", "3", "--seed", "7")
    b = run_cli("verify", "--n", "3", "--seed", "7")
    assert a.stdout == b.stdout


def test_json_outputs_reparse():
    proc = run_cli("analyze", "--spectrum", SKEWED)
    report = json.loads(proc.stdout)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--spectrum", HARMONIC),
        ("analyze", "--spectrum", SKEWED, "--format", "text"),
        ("analyze", "--spectrum", SQUARES),
        ("clock", "--spectrum", HARMONIC, "--steps", "7", "--format", "csv"),
        ("clock", "--spectrum", SKEWED),
        ("wigner", "--spectrum", HARMONIC, "--state", "v:1", "--step", "3"),
        ("wigner", "--spectrum", SQUARES, "--state", "mixed", "--time", "0.9"),
        ("verify", "--n", "5"),
        ("analyze", "--spectrum", "FLOAT_ENTRIES", "--shift-ground"),
        ("clock", "--spectrum", "FLOAT_ENTRIES", "--format", "csv"),
        ("analyze", "--spectrum", "ROOT_TWO", "--tolerance", "1e-12", "--max-denominator", "1000"),
    ],
)
def test_byte_identical_across_runs(tmp_path, args):
    payloads = {"FLOAT_ENTRIES": FLOAT_ENTRIES, "ROOT_TWO": ROOT_TWO}
    args = [write_spectrum(tmp_path, payloads[a]) if a in payloads else a for a in args]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.returncode == second.returncode
    assert first.returncode in (0, 1, 2, 3, 4, 5)


def test_analyze_float_entries_are_rationalized(tmp_path):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps({"n": 3, "energies": [0.0, 0.5, 1.0]}))
    proc = run_cli("analyze", "--spectrum", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["omega"] == "1/2"
    assert max(report["rationalization_residuals"]) < 1e-12


def test_density_tolerance_band(tmp_path):
    # hermiticity defect between the eigensolver gate and the density gate
    import numpy as np
    from qclock import check_density

    rho = np.eye(3, dtype=complex) / 3
    rho[0, 1] += 5e-11
    check_density(rho)  # must not raise


def test_nonfinite_energy_is_malformed(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"n": 3, "energies": [0, 1, Infinity]}')
    proc = run_cli("analyze", "--spectrum", str(path))
    assert proc.returncode == 2
    assert "energies[2]" in proc.stderr


def test_analyze_large_tick_measures_signs(tmp_path):
    # rationalizes to omega = 1/33461, delta_tau ~ 42048: exp(-i*T*gap) is
    # built from T's analytic eigensystem, so no Hermiticity gate scales with the tick
    path = tmp_path / "big_tick.json"
    path.write_text(json.dumps({"n": 5, "energies": [0, 1.4142135623730951, 2, 3, 4]}))
    proc = run_cli("analyze", "--spectrum", str(path), "--format", "text")
    assert proc.returncode == 0, proc.stderr
    assert "signs: commutation=-1 shift_direction=-1 weyl_pair=-1" in proc.stdout.splitlines()


def clock_ladder(n, scale, period):
    """E_m = m + n*scale*(m mod period): compatible with k = 1 however large scale is."""
    return {"n": n, "energies": [m + n * scale * (m % period) for m in range(n)]}


LARGE_LADDERS = {
    "n7-1e12": clock_ladder(7, 10**12, 3),
    "n7-1e14": clock_ladder(7, 10**14, 3),
    "n7-1e16": clock_ladder(7, 10**16, 3),
    "n7-1e400": clock_ladder(7, 10**400, 3),
    "n5-1e400": clock_ladder(5, 10**400, 2),
}


@pytest.mark.parametrize("payload", LARGE_LADDERS.values(), ids=LARGE_LADDERS.keys())
def test_large_energies_tick_exactly(tmp_path, payload):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("analyze", "--spectrum", str(path), "--format", "text")
    assert proc.returncode == 0, proc.stderr
    assert "signs: commutation=-1 shift_direction=-1 weyl_pair=-1" in proc.stdout.splitlines()

    proc = run_cli("clock", "--spectrum", str(path), "--steps", "14")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["direction_sign"] == -1
    n = payload["n"]
    for rec in report["steps_records"]:
        assert rec["occupied_index"] == -rec["j"] % n
        assert max(1.0 - rec["occupied_probability"], rec["max_offsite"]) <= 1e-9

    proc = run_cli("wigner", "--spectrum", str(path), "--state", "v:0", "--step", "1")
    assert proc.returncode == 0, proc.stderr


TINY_OMEGA = {"n": 3, "energies": [0, "1/1" + "0" * 400, "2/1" + "0" * 400]}
HUGE_OMEGA = {"n": 3, "energies": [0, 10**400, 2 * 10**400]}


@pytest.mark.parametrize(
    "payload,argv,code,needle",
    [
        (TINY_OMEGA, ("analyze",), 3, "tick"),
        (TINY_OMEGA, ("clock",), 3, "tick"),
        (TINY_OMEGA, ("wigner", "--state", "v:0", "--step", "1"), 3, "tick"),
        (HUGE_OMEGA, ("analyze",), 3, "tick"),
        (HUGE_OMEGA, ("clock",), 3, "tick"),
        (LARGE_LADDERS["n5-1e400"], ("wigner", "--state", "v:0", "--time", "1"), 2, "energy 1"),
        ({"n": 3, "energies": [0, 1, 2]}, ("wigner", "--state", "v:0", "--time", "1e308"), 2, "1e+308"),
        ({"n": 3, "energies": [0, 1, 2]}, ("wigner", "--state", "v:0", "--step", "1" + "0" * 400), 2, "--step"),
        ({"n": 3, "energies": [0, 1, 2]}, ("wigner", "--state", "v:0", "--step", "1" + "0" * 308), 2, "float64"),
        (OFF_LATTICE, ("analyze",), 3, ""),
        (OFF_LATTICE, ("clock",), 3, "energy 2 (2.00000001)"),
        (OFF_LATTICE, ("wigner", "--state", "v:0", "--step", "1"), 3, "energy 2 (2.00000001)"),
        (DEGENERATE, ("clock",), 3, "all energies equal"),
        (DEGENERATE, ("wigner", "--state", "v:0", "--step", "1"), 3, "all energies equal"),
    ],
    ids=["tiny-omega-analyze", "tiny-omega-clock", "tiny-omega-wigner", "huge-omega-analyze", "huge-omega-clock",
         "wigner-time-huge-energy", "wigner-time-overflow", "wigner-step-overflow",
         "wigner-step-phase-overflow", "not-commensurable-analyze", "not-commensurable-clock",
         "not-commensurable-wigner", "degenerate-clock", "degenerate-wigner"],
)
def test_unrepresentable_tick_or_energy_has_a_named_exit(tmp_path, payload, argv, code, needle):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(payload))
    proc = run_cli(argv[0], "--spectrum", str(path), *argv[1:])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


def test_tick_paths_never_float_an_unreduced_energy(monkeypatch, tmp_path, capsys):
    from qclock import (
        build_basis,
        build_pair,
        build_time_operator,
        clock_run,
        decompose_spectrum,
        shift_vs_evolution_residual,
        verify_energy_shift,
        verify_weyl_pair,
    )
    from qclock import Spectrum, cli

    payload = LARGE_LADDERS["n7-1e400"]
    n = payload["n"]
    spec = Spectrum(n, tuple(payload["energies"]))
    decomp = decompose_spectrum(spec)
    pair = build_pair(n)
    basis = build_basis(pair)
    top = build_time_operator(pair, decomp)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(payload))

    def refuse(self):
        raise AssertionError("an energy was converted to float before its reduction")

    monkeypatch.setattr(Spectrum, "as_floats", refuse)
    assert clock_run(pair, basis, decomp, spec, 0, 2 * n).direction_sign == -1
    assert shift_vs_evolution_residual(pair, basis, decomp, spec, np.eye(n) / n, n) < 1e-9
    assert abs(verify_weyl_pair(top, decomp, 1, 1) - np.exp(-2j * np.pi / n)) < 1e-10
    assert max(verify_energy_shift(top, spec, s) for s in range(n)) < 1e-10
    for argv in (
        ("analyze",),
        ("clock",),
        ("wigner", "--state", "v:0", "--step", "1"),
    ):
        assert cli.main([argv[0], "--spectrum", str(path), *argv[1:]]) == 0
    capsys.readouterr()


# runs argv as its only child and reports that child's peak RSS
_PEAK_RSS_WRAPPER = """
import json, resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True)
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
json.dump({"code": proc.returncode, "stdout": proc.stdout, "peak_kb": peak_kb}, sys.stdout)
"""


def run_cli_peak_rss(*args):
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_WRAPPER, sys.executable, "-m", "qclock", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["code"], result["stdout"], result["peak_kb"] / 1024.0


def test_clock_and_wigner_at_n211(tmp_path):
    from qclock import (
        Spectrum,
        build_basis,
        build_pair,
        clock_run,
        decompose_spectrum,
        exp_hermitian,
        shift_eigenvector,
        wigner_of_density,
    )
    from qclock.dynamics import conjugate_unitary

    n = 211
    path = tmp_path / "harmonic_n211.json"
    path.write_text(json.dumps({"n": n, "energies": list(range(n))}))
    spec = Spectrum(n, tuple(range(n)))
    decomp = decompose_spectrum(spec)
    pair = build_pair(n)
    basis = build_basis(pair)

    code, out, peak_mb = run_cli_peak_rss(
        "wigner", "--spectrum", str(path), "--state", "v:0", "--step", "1", "--format", "json"
    )
    assert code == 0
    assert peak_mb < 200
    vec = shift_eigenvector(pair, 0)
    hamiltonian = np.diag(spec.as_floats().astype(complex))
    rho = conjugate_unitary(np.outer(vec, vec.conj()), exp_hermitian(hamiltonian, decomp.delta_tau))
    expected = wigner_of_density(basis, rho).real
    assert np.max(np.abs(np.array(json.loads(out)["values"]) - expected)) < 1e-12

    code, out, peak_mb = run_cli_peak_rss("clock", "--spectrum", str(path), "--steps", "3")
    assert code == 0
    assert peak_mb < 200
    trace = clock_run(pair, basis, decomp, spec, 0, 3)
    records = json.loads(out)["steps_records"]
    assert [(r["occupied_index"], r["occupied_probability"]) for r in records] == [
        (s.occupied_index, s.occupied_probability) for s in trace.steps
    ]
