"""Re-measure the timings quoted in ROADMAP.md and say which reproduce.

    python3 perfbench/anchors.py

Each figure is timed five times in this process (run_suite(31) twice), with BLAS pinned as in ``run.py``.  A figure reproduces when the
median lies within 25% of the quoted value, the widest bound the benchmark
allows.  Takes about a minute.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time

import run

Q = run.load_package()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

TOLERANCE = 0.25
REPEATS = 5

# name -> seconds quoted in ROADMAP.md's re-anchor
QUOTED = {
    "run_suite(31)": 22.3,
    "run_suite(13)": 1.76,
    "run_suite(7)": 0.69,
    "clock_run 2N ticks at N=31": 0.66,
    "build_basis(31)": 0.319,
    "hermitian_eig of one N=31 matrix": 0.109,
    "map_operator at N=31": 0.0030,
    "cli analyze at N=31": 0.33,
    "cli clock at N=31": 0.84,
    "cli wigner at N=31": 0.49,
}


def timed(fn, repeats: int) -> list:
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def main() -> int:
    rng = np.random.default_rng(0)
    n = 31
    pair = Q.build_pair(n)
    basis = Q.build_basis(pair)
    _, ints = W.compatible_ints(rng, n)
    spec = Q.Spectrum(dim=n, energies=tuple(ints))
    decomp = Q.decompose_spectrum(spec)

    def clock_run():
        return Q.clock_run(pair, basis, decomp, spec, 0, 2 * n)

    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = herm + herm.conj().T

    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench_anchor") as tmp:
        path = f"{tmp}/spectrum.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"n": n, "energies": ints}, handle)

        def cli(*argv):
            return lambda: subprocess.run(
                [sys.executable, "-m", "qclock", *argv, "--spectrum", path],
                cwd=run.ROOT, env=run.child_env(), capture_output=True, check=True, timeout=120,
            )

        cases = {
            "run_suite(31)": (lambda: Q.run_suite(31), 2),
            "run_suite(13)": (lambda: Q.run_suite(13), REPEATS),
            "run_suite(7)": (lambda: Q.run_suite(7), REPEATS),
            "clock_run 2N ticks at N=31": (clock_run, REPEATS),
            "build_basis(31)": (lambda: Q.build_basis(pair), REPEATS),
            "hermitian_eig of one N=31 matrix": (lambda: Q.hermitian_eig(herm), REPEATS),
            "map_operator at N=31": (lambda: Q.map_operator(basis, herm), REPEATS),
            "cli analyze at N=31": (cli("analyze"), REPEATS),
            "cli clock at N=31": (cli("clock"), REPEATS),
            "cli wigner at N=31": (cli("wigner", "--state", "v:0", "--step", "1"), REPEATS),
        }
        rows = {}
        for name, (fn, repeats) in cases.items():
            samples = timed(fn, repeats)
            med = statistics.median(samples)
            ratio = med / QUOTED[name]
            rows[name] = {
                "quoted_s": QUOTED[name],
                "median_s": med,
                "min_s": min(samples),
                "max_s": max(samples),
                "repeats": repeats,
                "reproduced": abs(ratio - 1.0) <= TOLERANCE,
            }
            verdict = "reproduced" if rows[name]["reproduced"] else "DOES NOT reproduce"
            print(
                f"{name}: quoted {QUOTED[name]:.4g} s, median {med:.4g} s "
                f"(min {min(samples):.4g}, max {max(samples):.4g}, n={repeats}), "
                f"ratio {ratio:.2f}: {verdict}"
            )
    print(json.dumps({"env": run.environment(0), "anchors": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
