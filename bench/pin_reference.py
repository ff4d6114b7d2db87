"""Regenerate ``bench/reference.json``: the values the package gives today.

Usage, from the root of a checkout:

    python3 bench/pin_reference.py

Solves every workload once at seed 0 and records each operation's value
(the five variant values for an identity report); an operation that raises
gets no entry.  Run it only at a commit whose values are to become the
reference: the benchmark holds later commits to them within a relative
1e-9.
"""

from __future__ import annotations

import json
import sys

from run import import_package, run_operation
from workloads import REFERENCE_FILE, REPO_ROOT, WORKLOADS, build_operations


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    ez = import_package()
    pinned = {}
    for workload in WORKLOADS:
        values = pinned[workload] = {}
        for op in build_operations(ez, workload, 0, {}):
            try:
                result = run_operation(ez, op)
            except ez.errors.EhzcapError as exc:
                print(f"{workload}: {op.op_id} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            values[op.op_id] = (result.value if op.kind == "capacity"
                                else dict(result.values))
    REFERENCE_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
