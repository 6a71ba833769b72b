"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs the verify workloads once each through the fintopo CLI in src/ and
writes perfbench/reference.json: per workload the exit code, the sha256 of
the whole report and the sha256 of each proposition's serialize_report
text.  The parallel report must equal the sequential one byte for byte,
so only the sequential one is stored.  The enumeration count is OEIS
A000798 and is not taken from the program.  Re-record only when a change
is meant to alter a report, and say so in that change.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def record(workload, directory):
    report = directory / f"{workload}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fintopo.cli",
         *workloads.cli_argv(workload, str(report))],
        env={**os.environ, "PYTHONPATH": str(run.SRC)},
        stdout=subprocess.DEVNULL, check=False,
    )
    data = report.read_bytes()
    return data, {
        "exit_code": proc.returncode,
        "report_sha256": workloads.sha256(data),
        "propositions": dict(workloads.report_digests(data)),
    }


def main():
    directory = run.WORK / "reference"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    reference = {"recorded_at": run.git_sha()}
    sequential, reference["verify-default"] = record("verify-default",
                                                    directory)
    parallel, _ = record("verify-default-parallel", directory)
    if parallel != sequential:
        sys.exit("error: the parallel report differs from the sequential one")
    _, reference["sets-n5"] = record("sets-n5", directory)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
