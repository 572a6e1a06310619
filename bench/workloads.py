"""The benchmark's workloads: the CLI commands of each, their inputs, and the
checks every report must pass.

Each workload stresses a different layer (see BENCHMARK.json for why):

* h2_check    verify --exhaustive, almost all of it the degree-2 Howell
              eliminations of the H^2 hypothesis check (no randomness);
* psi_stream  many per-phi obstruction queries against one solver build;
* large_group an order-512 class-2 group generated from the seed, where the
              group-table validation dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 1
NAMES = ("h2_check", "psi_stream", "large_group")

# The report of large_group names this path, so it is fixed and relative to
# the checkout root: a temporary path would change the report's hash.
GROUP_FILE = "bench/out/large_group.json"

_U3 = ["--catalog", "unitriangular3", "--params", "n=2", "--ell", "2", "--n", "2"]

# sha256 of each command's report; h2_check's for every seed, the others'
# for DEFAULT_SEED.
PINNED = {
    "h2_check": (
        "3e2afdbcb7e08c9943c12ad932144665b91a7988b4ce363e20a9791605f12497",
        "2cad50d3e82f85fb3f366c13769aceea5feaa79a73bd0caf1cede14dea8f972d",
    ),
    "psi_stream": (
        "0886930a3e7d1a13f5aa4c198b02dfb771c4b935b289a5010a7d86cd72cf6b78",
        "b4900c4f1b531baae8a77ff57a130af23fe7f0b4a8f21331dd6d958a659602f0",
    ),
    "large_group": (
        "4a92476acb142767b7f1b549c4829e8602a0934a80070fd4b5bc1ecdb74d6fd3",
    ),
}


def large_group_spec(seed: int) -> dict:
    """A random class-2 presentation of order 512 with top quotient (Z/2)^4.

    d = 4 generators over Z/2, 5 central generators of order 2, and the 10
    commutator and power words drawn uniformly until they span the centre,
    so that the descending step is the whole centre.
    """
    rng = random.Random(seed)
    d, s = 4, 5
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    while True:
        words = [[rng.randrange(2) for _ in range(s)] for _ in range(len(pairs) + d)]
        if _f2_rank(words) == s:
            break
    return {
        "class2": {
            "d": d,
            "ell": 2,
            "n": 1,
            "central_orders": [2] * s,
            "commutators": {f"{i},{j}": w for (i, j), w in zip(pairs, words)},
            "powers": words[len(pairs):],
        }
    }


def _f2_rank(vectors) -> int:
    pivots = {}
    for v in vectors:
        x = int("".join(map(str, v)), 2)
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


def write_large_group(root: Path, seed: int) -> None:
    path = root / GROUP_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(large_group_spec(seed), sort_keys=True) + "\n")


def commands(name: str, seed: int, root: Path):
    """The CLI argument lists of one pass over the workload; for large_group
    this also writes the seed's group file."""
    if name == "h2_check":
        return [
            ["verify", "--catalog", "heisenberg", "--ell", "3", "--n", "1",
             "--m", "2", "--exhaustive"],
            ["verify", "--catalog", "free_class2", "--params", "d=2", "--ell", "2",
             "--n", "1", "--m", "2", "--exhaustive"],
        ]
    if name == "psi_stream":
        return [
            ["obstruction", *_U3, "--m", "2", "--routes", "all",
             "--random", "40", "--seed", str(seed)],
            ["obstruction", *_U3, "--m", "3", "--routes", "generic",
             "--random", "20", "--seed", str(seed)],
        ]
    if name == "large_group":
        write_large_group(root, seed)
        return [
            ["obstruction", "--group-file", GROUP_FILE, "--ell", "2", "--n", "1",
             "--m", "2", "--random", "20", "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {name!r}")


def phis_decided(report: dict) -> int:
    """Phi maps whose obstruction class the command decided."""
    if report["command"] == "verify":
        return report["direction1"]["checked"] + report["direction2"]["checked"]
    return len(report["records"])


def check_report(name: str, seed: int, index: int, argv, raw: bytes):
    """Problems with one command's report, as a list of strings."""
    problems = []
    digest = hashlib.sha256(raw).hexdigest()
    pinned = PINNED[name][index]
    if (name == "h2_check" or seed == DEFAULT_SEED) and digest != pinned:
        problems.append(f"report sha256 {digest} != pinned {pinned}")
    try:
        problems += _certificate_problems(json.loads(raw), argv)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"report is malformed: {exc!r}")
    return problems


def _certificate_problems(report: dict, argv):
    """The in-report certificates, which must hold for every seed."""
    if argv[0] == "verify":
        problems = []
        if report["direction1"]["passed"] is not True:
            problems.append("direction1 failed")
        if report["direction2"]["asserted"] and report["direction2"]["passed"] is not True:
            problems.append("direction2 asserted but failed")
        return problems
    records = report["records"]
    wanted = int(argv[argv.index("--random") + 1])
    problems = [] if len(records) == wanted else [f"{len(records)} records, asked {wanted}"]
    routes = argv[argv.index("--routes") + 1] if "--routes" in argv else "generic"
    keys = set() if routes == "generic" else {"generic_vs_closed_entrywise"}
    if routes in ("m2", "all") and report["m"] == 2:
        keys.add("generic_vs_m2_cohomologous")
    for i, rec in enumerate(records):
        for key in sorted(keys):
            if rec["routes"][key] is not True:
                problems.append(f"record {i}: {key} is {rec['routes'][key]!r}")
    return problems
