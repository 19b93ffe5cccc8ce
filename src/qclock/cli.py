"""Command-line interface and file formats; the only module with I/O.

Exit codes: 0 ok, 1 verify-suite failure, 2 malformed input, 3 incompatible
spectrum, 4 bad dimension, 5 internal consistency failure.  All output is a
deterministic function of (input file, flags, seed): floats are printed with
17 significant digits in JSON (lossless round-trip) and 12 in text/CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import __version__
from .dynamics import clock_run, conjugate_diagonal
from .errors import DimensionNotOddPrime, IncompatibleSpectrum, QClockError
from .numerics import is_odd_prime
from .phase_space import build_basis, wigner_of_density
from .schwinger import build_pair, shift_eigenvector
from .spectrum import (
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_TOLERANCE,
    IncompatibilityCertificate,
    Spectrum,
    SpectrumDecomposition,
    analyze_float_spectrum,
    decompose_spectrum,
    rationalize_energies,
)
from .verification import measure_signs, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MALFORMED = 2
EXIT_INCOMPATIBLE = 3
EXIT_BAD_DIMENSION = 4
EXIT_INTERNAL = 5

_VERIFY_DIM_CAP = 31  # runtime guard for the verify suite
_SPECTRUM_DIM_CAP = 1009  # N x N complex matrices: ~0.18 GB peak at the cap
_MAX_STEPS = 100_000  # clock ticks; time and memory grow linearly with them
_RATIO_RE = re.compile(r"[+-]?[0-9]+/[0-9]+")
# numeric flags: ASCII digits only, as int() and float() also take other scripts' digits and "_"
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class SpectrumFileError(QClockError):
    """Malformed spectrum file; the message names the offending field."""


# a JSON integer with more digits than int() converts from a string
_LongInteger = namedtuple("_LongInteger", "digits")


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(len(text.lstrip("+-")))


def _require_convertible(value, field: str) -> None:
    if isinstance(value, _LongInteger):
        raise SpectrumFileError(f"{field} has {value.digits} digits, more than int() converts")


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt17(x: float) -> str:
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _dump_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_dump_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if all(not isinstance(item, (dict, list, tuple)) for item in value):
            return "[" + ", ".join(_dump_json(item) for item in value) + "]"
        body = ",\n".join(f"{pad}  {_dump_json(item, indent + 1)}" for item in value)
        return "[\n" + body + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt17(value)
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, stream=None) -> None:
    """Write text and a final newline to stdout (or stream); a reader that has gone is no error.

    On a closed pipe the stream is pointed at os.devnull, so the unwritten
    rest and the flush at exit go nowhere and the command keeps its exit code.
    """
    stream = stream or sys.stdout  # read per call, as output capture swaps sys.stdout
    try:
        stream.write(text if text.endswith("\n") else text + "\n")
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _report_error(message: str) -> None:
    _emit(f"error: {message}\n", sys.stderr)  # as print() writes it, even for a trailing newline


# ---------------------------------------------------------------------------
# spectrum files


def load_spectrum_file(path: str) -> dict:
    """Parse a spectrum file: {"n": int, "energies": [...], "label"?: str}.

    Energies are JSON numbers or "p/q" strings; unknown fields are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_int=_parse_int)
    except OSError as exc:
        raise SpectrumFileError(f"cannot read spectrum file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpectrumFileError(f"spectrum file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpectrumFileError(f"spectrum file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpectrumFileError(f"spectrum file is nested too deeply: {exc}") from exc

    if not isinstance(raw, dict):
        raise SpectrumFileError("spectrum file must be a JSON object")
    unknown = sorted(set(raw) - {"n", "energies", "label"})
    if unknown:
        raise SpectrumFileError(f"unknown field {unknown[0]!r} in spectrum file")
    if "n" not in raw or "energies" not in raw:
        missing = "n" if "n" not in raw else "energies"
        raise SpectrumFileError(f"missing field {missing!r} in spectrum file")

    n = raw["n"]
    _require_convertible(n, "field 'n'")
    if isinstance(n, bool) or not isinstance(n, int):
        raise SpectrumFileError("field 'n' must be an integer")
    energies = raw["energies"]
    if not isinstance(energies, list):
        raise SpectrumFileError("field 'energies' must be a list")
    if len(energies) != n:
        raise SpectrumFileError(
            f"field 'energies' has {len(energies)} entries, expected n = {n}"
        )
    for i, entry in enumerate(energies):
        _require_convertible(entry, f"energies[{i}]")
        if isinstance(entry, bool):
            raise SpectrumFileError(f"energies[{i}] must be a number or 'p/q' string")
        if isinstance(entry, str):
            if not _RATIO_RE.fullmatch(entry):
                raise SpectrumFileError(f"energies[{i}] is not a 'p/q' string: {entry!r}")
            parts = [_parse_int(part) for part in entry.split("/")]
            for part in parts:
                _require_convertible(part, f"energies[{i}]")
            if parts[1] == 0:
                raise SpectrumFileError(f"energies[{i}] has zero denominator: {entry!r}")
        elif not isinstance(entry, (int, float)):
            raise SpectrumFileError(f"energies[{i}] must be a number or 'p/q' string")
        elif isinstance(entry, float) and not math.isfinite(entry):
            raise SpectrumFileError(f"energies[{i}] is not finite")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise SpectrumFileError("field 'label' must be a string")
    return {"n": n, "energies": energies, "label": label}


def _load_odd_prime_spectrum(path: str) -> dict:
    """load_spectrum_file, then exit 4 unless n is an odd prime <= the cap."""
    data = load_spectrum_file(path)
    if data["n"] > _SPECTRUM_DIM_CAP:
        raise DimensionNotOddPrime(f"n = {data['n']} is above the cap of {_SPECTRUM_DIM_CAP}")
    if not is_odd_prime(data["n"]):
        raise DimensionNotOddPrime(f"n = {data['n']} is not an odd prime")
    return data


# ---------------------------------------------------------------------------
# analyze


def _require_printable(field: str, *values: int) -> None:
    """Exit 2 when an output integer has more digits than str() converts."""
    try:
        for value in values:
            str(value)
    except ValueError:
        raise SpectrumFileError(
            f"output field {field!r} has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, more than str() converts"
        ) from None


def _verdict_fields(outcome) -> dict:
    if isinstance(outcome, SpectrumDecomposition):
        _require_printable("omega", outcome.omega.numerator, outcome.omega.denominator)
        _require_printable("f", *outcome.f)
        return {
            "compatible": True,
            "omega": outcome.omega,
            "k": outcome.k,
            "delta_tau": outcome.delta_tau,
            "f": list(outcome.f),
        }
    certificate = {key: value for key, value in vars(outcome).items() if value is not None}
    return {"compatible": False, "certificate": certificate}


def _report(command: str, args, data: dict, **extra_input) -> dict:
    """The opening of a spectrum command's JSON report: version, command, input."""
    return {
        "tool_version": __version__,
        "command": command,
        "input": {
            "path": args.spectrum,
            "n": data["n"],
            "energies": data["energies"],
            "label": data["label"],
            **extra_input,
        },
    }


def cmd_analyze(args) -> int:
    data = _load_odd_prime_spectrum(args.spectrum)
    n = data["n"]

    fractions = rationalize_energies(data["energies"], args.tolerance, args.max_denominator)
    if isinstance(fractions, IncompatibilityCertificate):
        outcome, fractions, residuals = fractions, None, None
    else:
        outcome = decompose_spectrum(Spectrum(dim=n, energies=fractions))
        residuals = [
            abs(e - float(x)) if isinstance(e, float) else 0.0
            for e, x in zip(data["energies"], fractions)
        ]

    report = _report("analyze", args, data, tolerance=args.tolerance,
                     max_denominator=args.max_denominator, shift_ground=bool(args.shift_ground))
    report["rationalization_residuals"] = residuals
    report.update(_verdict_fields(outcome))

    decomp = outcome if isinstance(outcome, SpectrumDecomposition) else None
    report["convention_notes"] = measure_signs(build_pair(n), decomp)

    if args.shift_ground:
        shifted = outcome
        if fractions is not None:
            shifted = decompose_spectrum(Spectrum(n, tuple(e - fractions[0] for e in fractions)))
        report["shifted"] = _verdict_fields(shifted)

    if args.format == "json":
        _emit(_dump_json(report))
    else:
        _emit_analyze_text(report)
    return EXIT_OK if report["compatible"] else EXIT_INCOMPATIBLE


def _signs_line(signs: dict) -> str:
    return (
        f"signs: commutation={signs['commutation_sign']}"
        f" shift_direction={signs['shift_direction_sign']}"
        f" weyl_pair={signs['weyl_pair_sign']}"
    )


def _emit_analyze_text(report: dict) -> None:
    lines = [f"qclock analyze {report['tool_version']}"]
    src = report["input"]
    label = f" ({src['label']})" if src["label"] else ""
    lines.append(f"spectrum: {src['path']}{label}")
    lines.append(f"n: {src['n']}")
    if report["compatible"]:
        lines.append("compatible: yes")
        omega = report["omega"]
        lines.append(f"omega: {omega.numerator}/{omega.denominator}")
        lines.append(f"k: {report['k']}")
        lines.append(f"delta_tau: {_fmt12(report['delta_tau'])}")
        lines.append("f: " + ", ".join(str(x) for x in report["f"]))
    else:
        cert = report["certificate"]
        lines.append("compatible: no")
        lines.append(f"reason: {cert['reason']}")
        if "residues" in cert:
            lines.append("residues: " + ", ".join(str(r) for r in cert["residues"]))
        if "first_bad_index" in cert:
            lines.append(f"first_bad_index: {cert['first_bad_index']}")
        lines.append(f"detail: {cert['detail']}")
    lines.append(_signs_line(report["convention_notes"]))
    if "shifted" in report:
        sub = report["shifted"]
        if sub["compatible"]:
            omega = sub["omega"]
            lines.append(
                f"ground-shifted: compatible, omega={omega.numerator}/{omega.denominator}, "
                f"k={sub['k']}, delta_tau={_fmt12(sub['delta_tau'])}"
            )
        else:
            lines.append(f"ground-shifted: incompatible ({sub['certificate']['reason']})")
    _emit("\n".join(lines))


# ---------------------------------------------------------------------------
# clock


def _compatible(data: dict):
    """The SpectrumDecomposition of a loaded spectrum file; raises IncompatibleSpectrum."""
    outcome = analyze_float_spectrum(data["energies"], data["n"], DEFAULT_TOLERANCE, DEFAULT_MAX_DENOMINATOR)
    if not isinstance(outcome, SpectrumDecomposition):
        raise IncompatibleSpectrum(outcome.detail)
    return outcome


def cmd_clock(args) -> int:
    data = _load_odd_prime_spectrum(args.spectrum)
    decomp = _compatible(data)
    n = decomp.dim
    steps = args.steps if args.steps is not None else 2 * n
    if not 0 <= args.initial < n:
        raise SpectrumFileError(f"--initial must be in 0..{n - 1}, got {args.initial}")

    pair = build_pair(n)
    basis = build_basis(pair)
    trace = clock_run(pair, basis, decomp, Spectrum(dim=n, energies=decomp.energies()), args.initial, steps)

    if args.format == "json":
        report = _report("clock", args, data, initial=args.initial, steps=steps)
        report.update({
            "dim": trace.dim,
            "k": trace.k,
            "direction_sign": trace.direction_sign,
            "delta_tau": trace.delta_tau,
            "steps_records": [vars(rec) for rec in trace.steps],
        })
        _emit(_dump_json(report))
    else:
        lines = ["j,time,occupied_index,occupied_probability,max_offsite"]
        lines += [
            f"{rec.j},{_fmt12(rec.time)},{rec.occupied_index},"
            f"{_fmt12(rec.occupied_probability)},{_fmt12(rec.max_offsite)}"
            for rec in trace.steps
        ]
        _emit("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wigner


def _parse_state(text: str, n: int):
    if text == "mixed":
        return ("mixed", None)
    match = re.fullmatch(r"([uv]):([0-9]+)", text)
    if not match:
        raise SpectrumFileError(
            f"--state must be 'v:INT', 'u:INT', or 'mixed', got {text!r}"
        )
    index = _parse_int(match.group(2))
    _require_convertible(index, "--state index")
    if not 0 <= index < n:
        raise SpectrumFileError(f"--state index {index} outside 0..{n - 1}")
    return (match.group(1), index)


def cmd_wigner(args) -> int:
    data = _load_odd_prime_spectrum(args.spectrum)
    n = data["n"]
    kind, index = _parse_state(args.state, n)
    flag = "--time" if args.step is None else "--step"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.step is not None:
                decomp = _compatible(data)
                t = args.step * decomp.delta_tau
                phases = decomp.tick_phases(args.step)
            else:
                t = args.time
                phases = Spectrum(dim=n, energies=tuple(data["energies"])).phases(t)
    except OverflowError as exc:  # an energy, or the --step ticks, beyond float64
        raise SpectrumFileError(f"{flag}: {exc}") from exc
    if not (np.isfinite(t) and np.all(np.isfinite(phases))):
        raise SpectrumFileError(f"{flag}: time {t!r} times an energy exceeds the float64 range")

    pair = build_pair(n)
    basis = build_basis(pair)
    if kind == "mixed":
        rho = np.eye(n, dtype=np.complex128) / n
    elif kind == "v":
        vec = shift_eigenvector(pair, index)
        rho = np.outer(vec, vec.conj())
    else:
        rho = np.zeros((n, n), dtype=np.complex128)
        rho[index, index] = 1.0

    grid = wigner_of_density(basis, conjugate_diagonal(rho, phases))

    imag_defect = float(np.max(np.abs(grid.imag)))
    real_ok = imag_defect < 1e-10
    if args.format == "json":
        if real_ok:
            values = [[float(x) for x in row] for row in grid.real]
        else:
            values = [[f"{x.real!r}{x.imag:+}j" for x in row] for row in grid]
        report = _report("wigner", args, data, state=args.state, time=t)
        report.update({"dim": n, "real": real_ok, "values": values})
        _emit(_dump_json(report))
    else:
        lines = ["m\\n," + ",".join(str(c) for c in range(n))]
        for m, row in enumerate(grid.real if real_ok else grid):
            if real_ok:  # one format call per row of Python floats: the text of _fmt12 per cell
                cells = map("{:.12g}".format, row.tolist())
            else:
                cells = [f"{_fmt12(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt12(abs(x.imag))}j" for x in row]
            lines.append(f"{m}," + ",".join(cells))
        _emit("\n".join(lines))
    if not real_ok:
        _report_error(f"wigner grid has imaginary parts up to {imag_defect:.3e}")
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.n > _VERIFY_DIM_CAP or not is_odd_prime(args.n):
        raise DimensionNotOddPrime(
            f"--n must be an odd prime <= {_VERIFY_DIM_CAP}, got {args.n}"
        )
    report = run_suite(args.n, args.seed)
    if args.format == "json":
        payload = {
            "tool_version": __version__,
            "command": "verify",
            "dim": report.dim,
            "seed": report.seed,
            "passed": report.passed,
            "signs": dict(report.signs),
            "checks": [vars(chk) for chk in report.checks],
        }
        _emit(_dump_json(payload))
    else:
        lines = [f"qclock verify {__version__}  n={report.dim} seed={report.seed}"]
        lines.append(_signs_line(report.signs))
        for chk in report.checks:
            comparator = "<=" if chk.mode == "upper" else ">="
            status = "PASS" if chk.passed else "FAIL"
            lines.append(
                f"{status} {chk.name}: residual={_fmt12(chk.residual)} "
                f"{comparator} {_fmt12(chk.threshold)}"
            )
        verdict = "all checks passed" if report.passed else "SOME CHECKS FAILED"
        lines.append(verdict)
        _emit("\n".join(lines))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point


def _number(kind, ok, requirement: str):
    """argparse type: kind(text) of ASCII decimal text, satisfying ok, else exit 2 naming the flag."""
    grammar = _INTEGER_RE if kind is int else _DECIMAL_RE

    def parse(text: str):
        try:
            value = kind(text) if grammar.fullmatch(text) else None
        except ValueError:  # an integer with more digits than int() converts
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_finite_float = _number(float, math.isfinite, "a finite number")
_positive_float = _number(
    float, lambda x: math.isfinite(x) and x > 0.0, "a finite positive number"
)
_integer = _number(int, lambda x: True, "an integer")
_positive_int = _number(int, lambda x: x >= 1, "an integer >= 1")
_seed = _number(int, lambda x: x >= 0, "an integer >= 0")
_step_count = _number(int, lambda x: 1 <= x <= _MAX_STEPS, f"an integer in 1..{_MAX_STEPS}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Discrete phase-space clock toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="decide whether a spectrum supports a clock")
    p.add_argument("--spectrum", required=True, help="path to a spectrum JSON file")
    p.add_argument("--tolerance", type=_positive_float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-denominator", type=_positive_int, default=DEFAULT_MAX_DENOMINATOR)
    p.add_argument("--shift-ground", action="store_true",
                   help="also analyze with the ground energy subtracted")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("clock", help="run the stroboscopic clock protocol")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--initial", type=_integer, default=0)
    p.add_argument("--steps", type=_step_count, default=None, help="tick count (default 2N)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_clock)

    p = sub.add_parser("wigner", help="dump the Wigner grid of an evolved state")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--state", required=True, help="v:INT, u:INT, or mixed")
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=_finite_float)
    when.add_argument("--step", type=_integer)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("verify", help="run the invariant suite at a dimension")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    return parser


# (exception types, exit code, message prefix), first match wins
_FAILURES = (
    (SpectrumFileError, EXIT_MALFORMED, ""),
    (DimensionNotOddPrime, EXIT_BAD_DIMENSION, ""),
    (IncompatibleSpectrum, EXIT_INCOMPATIBLE, "incompatible spectrum: "),
    (QClockError, EXIT_INTERNAL, "internal consistency failure: "),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QClockError as exc:
        code, prefix = next((c, p) for kinds, c, p in _FAILURES if isinstance(exc, kinds))
        _report_error(f"{prefix}{exc}")
        return code
    except Exception as exc:  # a fault of the program, not of the input: exit 5, not a traceback and exit 1
        _report_error(f"internal failure: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
