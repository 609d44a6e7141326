#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks, from the repository root.

    python3 perfbench/selftest.py

Quick mode: runs each workload's job list once at seed 0 and requires
every job to pass its check. Then it corrupts copies of real outputs
(a perturbed fixed point, a flipped `_pass` flag, an off tau_N, a wrong
exit code, ...) and requires every corrupted copy to count as failed,
which shows that the checks are not vacuous. Exits 1 if any
expectation fails.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import HERE, Runner, import_library


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_csv_cell(path: Path, row: int, col: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def paper_corruptions(out, scratch: Path):
    code, out_dir = out

    def copy(label, edit):
        target = scratch / label
        shutil.copytree(out_dir, target)
        edit(target)
        return label, (code, target)

    def flip(doc):
        doc["tau_2_pass"] = not doc["tau_2_pass"]

    def off_tau(doc):
        doc["tau_2"] *= 1.0 + 1e-5

    def bad_search(doc):
        doc["bound_search"]["rho"] = 1.6

    yield copy("flipped _pass flag", lambda d: _edit_json(d / "summary.json", flip))
    yield copy("tau_2 off by 1e-5", lambda d: _edit_json(d / "summary.json", off_tau))
    yield copy("bound search outside its thresholds",
               lambda d: _edit_json(d / "summary.json", bad_search))
    yield copy("perturbed P* eigenvalue",
               lambda d: _scale_csv_cell(d / "fixed_point_sweep.csv", 100, 1, 1.0 + 1e-7))
    yield copy("perturbed Gramian sweep",
               lambda d: _scale_csv_cell(d / "gramian_sweep.csv", 50, 1, 1.0 + 1e-6))
    yield "exit code 3", (3, out_dir)


def filter_corruptions(out, scratch: Path):
    run, f0, f1, ob = out

    def with_last_P(f, factor):
        return dataclasses.replace(f, P_sequence=f.P_sequence[:-1] + [f.P_sequence[-1] * factor])

    yield "perturbed P* (theta = 0)", (run, with_last_P(f0, 1.0 + 1e-7), f1, ob)
    yield "perturbed P* (theta > 0)", (run, f0, with_last_P(f1, 1.0 + 1e-7), ob)
    yield "observer innovations off", (run, f0, f1, dataclasses.replace(
        ob, innovations=ob.innovations * (1.0 + 1e-6)))
    yield "coloured innovations", (run, dataclasses.replace(
        f0, innovations=f0.innovations + 0.5 * np.roll(f0.innovations, 1, axis=0)), f1, ob)
    yield "filter stopped early", (run, dataclasses.replace(f0, violation_step=5), f1, ob)
    yield "noise draws replaced", (dataclasses.replace(
        run, process_noise=run.process_noise[::-1].copy()), f0, f1, ob)


def scan_corruptions(out, scratch: Path):
    code, text, err = out

    def edited(edit):
        doc = json.loads(text)
        edit(doc)
        return code, json.dumps(doc), err

    def off_tau(doc):
        doc["tau_N"] *= 1.0 + 1e-5

    def flip(doc):
        doc["conditions_hold"] = not doc["conditions_hold"]

    def off_beta(doc):
        doc["bound"]["beta_rho"] *= 1.0 + 1e-5

    yield "tau_N off by 1e-5", edited(off_tau)
    yield "conditions_hold flipped", edited(flip)
    yield "beta_rho off by 1e-5", edited(off_beta)
    yield "wrong exit code", (4, text, err)


CORRUPTIONS = {
    "paper-example": paper_corruptions,
    "filter-stream": filter_corruptions,
    "model-scan": scan_corruptions,
}


def main() -> int:
    rs = import_library()
    import workloads

    ok = True
    (HERE / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(rs, 0, scratch)
            clean = Runner(workload)
            clean.checked_pass(workload.jobs)
            print(f"{name}: {clean.failed} of {clean.attempted} clean jobs failed")
            ok &= clean.failed == 0 and clean.attempted > 0
            for problem in clean.problems:
                print(f"  {problem}")

            job = workload.jobs[-1]
            out = workload.run(job)
            corrupted = Runner(workload)
            for label, bad in CORRUPTIONS[name](out, scratch):
                before = corrupted.failed
                corrupted.check(job, bad)
                caught = corrupted.failed > before
                ok &= caught
                print(f"  corruption {'caught' if caught else 'MISSED'}: {label}")
            print(f"{name}: failed_frac {corrupted.failed / corrupted.attempted:.2f} "
                  f"over {corrupted.attempted} corrupted outputs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
