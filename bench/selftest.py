"""Checks of the large_group input generator.

    python3 bench/selftest.py

The same seed must give a byte-identical group file, and the group of the
default seed must have order 512 and load with exit 0.  Takes about as long
as one large_group command, because loading validates the order-512 table.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Child
import workloads


def main():
    failures = []
    path = ROOT / workloads.GROUP_FILE
    workloads.write_large_group(ROOT, workloads.DEFAULT_SEED)
    first = path.read_bytes()
    workloads.write_large_group(ROOT, workloads.DEFAULT_SEED + 1)
    other = path.read_bytes()
    workloads.write_large_group(ROOT, workloads.DEFAULT_SEED)
    if path.read_bytes() != first:
        failures.append("the same seed gave different group files")
    if other == first:
        failures.append("two seeds gave the same group file")

    child = Child(["socle", "--group-file", workloads.GROUP_FILE, "--ell", "2", "--n", "1"],
                  "plain", "selftest-socle")
    if child.exit_code != 0:
        failures.append(f"socle on the default-seed group exited {child.exit_code}")
    else:
        order = json.loads(child.report)["order"]
        if order != 512:
            failures.append(f"default-seed group has order {order}, not 512")
    for f in failures:
        print(f"FAILED {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
