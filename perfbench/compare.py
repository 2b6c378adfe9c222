#!/usr/bin/env python3
"""Host fingerprints for benchmark records, and a record comparison.

Usage::

    python3 perfbench/compare.py OLD_RECORD.json NEW_RECORD.json

Prints each metric of two records side by side.  It refuses (exit code
2) to compare records made on different hosts, by different Python,
numpy or scipy versions, or of different workloads or trace modes.  The
git commit is stamped on every record but may differ: comparing two
commits is the point.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """What must match for two records' timings to be comparable."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    for key in ("host", "workload", "trace"):
        if old[key] != new[key]:
            print(
                f"refusing to compare: {key} differs\n  old: {old[key]}\n  new: {new[key]}",
                file=sys.stderr,
            )
            return 2
    print(f"{new['workload']}: {old['commit']} -> {new['commit']}")
    for name, metric in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = metric["value"]
        change = f"{after / before - 1:+.1%}" if before else "n/a"
        print(f"  {name:32} {before!r:>24} {after!r:>24} {metric['unit']:>9} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
