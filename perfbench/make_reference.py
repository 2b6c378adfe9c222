#!/usr/bin/env python3
"""Print the reference signatures: one pass of each workload on the default seed.

Usage, from the repository root, after a change that is meant to alter
outputs::

    python3 perfbench/make_reference.py > perfbench/reference.json

Every output is checked (exact cover, constraints, Eq. 1) before its
``result_signature`` digest is printed; the script exits with code 1,
printing nothing, if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, workloads  # noqa: E402


def main() -> int:
    reference = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, workload_type in workloads.WORKLOADS.items():
        if name in checks.REFERENCE_OF:
            continue
        workload = workload_type()
        directory = Path(tempfile.mkdtemp(prefix="perfbench-reference-"))
        try:
            inputs = workload.setup(workloads.DEFAULT_SEED, directory, pools=1)
            samples = workload.run_pass(inputs, None, digests=True).samples
            outcomes = [outcome for sample in samples for outcome in sample.outcomes]
            failures = checks.check_outcomes(
                outcomes,
                inputs.jobs,
                lambda job: workloads.read_log(inputs.paths[job.log_name]),
                {},
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if failures:
            print(f"{name}: {failures}", file=sys.stderr)
            return 1
        reference["workloads"][name] = {
            outcome.job_id: outcome.digest for outcome in outcomes
        }
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
