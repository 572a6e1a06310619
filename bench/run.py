"""Benchmark harness for the soclecoh CLI (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of bench/workloads.py, or `all` to run each in turn.  The
harness runs the workload's CLI commands as child processes, one at a time
(a closed loop with one client), from the root of the checkout, with the
package imported from src/.  It checks every report (exit code, pinned
sha256 for the default seed, in-report certificates), prints each metric by
name with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics, untraced: passes over the
commands repeat while another pass, as slow as the slowest so far, would
end within S seconds (at least one pass runs).  Set-up-only passes, which
stop each command once its context is built, then bring the set-up samples
up to MIN_SETUP_SAMPLES while time is left.  wall_s, setup_s and
peak_rss_mb are medians over their samples; phi_per_s is the run's phis
decided over its time from context-ready to exit.
--trace 1 runs one untraced pass and one traced pass, checks that their
reports are byte-identical, and reports the per-layer metrics of the traced
pass (see bench/tracer.py) plus the tracing overhead.

Exit status: 0 when every check passed, 1 when a check failed (the JSON line
is still printed), 2 when the checkout cannot run the benchmark at all.
Full results, with the run context, go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_SETUP_SAMPLES = 5


class Child:
    """One finished CLI child: exit code, timings, peak RSS and report."""

    def __init__(self, argv, mode, tag):
        stats_path = OUT / f"{tag}.stats.json"
        report_path = OUT / f"{tag}.report.json"
        stats_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(stats_path), *argv]
        with open(report_path, "wb") as out, open(OUT / f"{tag}.stderr", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # give the largest peak of every child reaped so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.argv = argv
        self.exit_code = proc.returncode
        self.launched, self.exited = launched, exited
        self.wall = exited - launched
        self.rss_mb = usage.ru_maxrss / 1024
        self.report = report_path.read_bytes()
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, ValueError):
            stats = {}
        ready = stats.get("ready")
        self.setup = None if ready is None else ready - launched
        self.spans = stats.get("spans")


class Pass:
    """One pass over a workload's commands, with the checks of its reports."""

    def __init__(self, name, seed, cmds, mode):
        self.children = [
            Child(argv, mode, f"{name}-{mode}-{i}") for i, argv in enumerate(cmds)
        ]
        self.problems = []
        self.failed = 0
        self.phis = 0
        for i, c in enumerate(self.children):
            problems = []
            if c.exit_code != 0:
                problems.append(f"exit code {c.exit_code}")
            if c.setup is None:
                problems.append("no ObstructionContext was built")
            if mode != "setup":
                problems += workloads.check_report(name, seed, i, c.argv, c.report)
                if not problems:
                    self.phis += workloads.phis_decided(json.loads(c.report))
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(c.argv)}: {p}" for p in problems]
        self.wall = self.children[-1].exited - self.children[0].launched
        self.setup = sum(c.setup or 0.0 for c in self.children)
        self.deciding = sum(c.wall - c.setup for c in self.children if c.setup is not None)
        self.rss_mb = max(c.rss_mb for c in self.children)
        self.hashes = [hashlib.sha256(c.report).hexdigest() for c in self.children]


def run_context():
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "samples": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "samples": len(values)}


def measure(name, seed, seconds):
    """End-to-end metrics from repeated untraced passes."""
    cmds = workloads.commands(name, seed, ROOT)
    deadline = time.monotonic() + seconds
    passes = []
    while True:
        passes.append(Pass(name, seed, cmds, "plain"))
        if time.monotonic() + max(p.wall for p in passes) > deadline:
            break
    setups = [p.setup for p in passes]
    extra = []
    while len(setups) < MIN_SETUP_SAMPLES:
        if time.monotonic() + max(setups) > deadline:
            break
        extra.append(Pass(name, seed, cmds, "setup"))
        setups.append(extra[-1].setup)
    samples = {
        "wall_s": [p.wall for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    summary = {k: quartiles(v) for k, v in samples.items()}
    metrics = {k: v["median"] for k, v in summary.items()}
    # Throughput is work over time for the whole run, not a median of
    # per-pass ratios: phis decided over the time from context-ready to exit.
    deciding = sum(p.deciding for p in passes)
    metrics["phi_per_s"] = sum(p.phis for p in passes) / deciding if deciding > 0 else 0.0
    summary["phi_per_s"] = {"passes": len(passes), "phis": sum(p.phis for p in passes),
                            "deciding_s": deciding}
    return passes + extra, metrics, summary


def trace(name, seed):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    cmds = workloads.commands(name, seed, ROOT)
    plain = Pass(name, seed, cmds, "plain")
    traced = Pass(name, seed, cmds, "trace")
    if traced.hashes != plain.hashes:
        traced.problems.append("traced reports differ from untraced reports")
        traced.failed = max(traced.failed, 1)
    metrics = tracer.layer_metrics([c.spans or [] for c in traced.children])
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    summary = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall}
    return [plain, traced], metrics, summary


def run_workload(name, seed, seconds, traced, context):
    started = time.monotonic()
    if traced:
        passes, metrics, summary = trace(name, seed)
    else:
        passes, metrics, summary = measure(name, seed, seconds)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    attempted = sum(len(p.children) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    print(f"workload {name} seed {seed} trace {int(traced)}: {len(passes)} pass(es), "
          f"{attempted} commands, {time.monotonic() - started:.1f} s")
    for key, unit in units.items():
        stat = summary.get(key, {})
        if "samples" in stat:
            extra = f"  (median of {stat['samples']})"
        elif "passes" in stat:
            extra = f"  ({stat['phis']} phis over {stat['passes']} passes)"
        else:
            extra = ""
        print(f"  {key:40s} {metrics[key]!r:>24} {unit}{extra}")
    print(f"  {'error_rate':40s} {failed / attempted!r:>24}   ({failed} of {attempted} commands)")
    for p in problems:
        print(f"  FAILED {p}")
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "context": context,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "summary": summary,
        "passes": [
            {
                "commands": [
                    {"argv": c.argv, "exit": c.exit_code, "wall_s": c.wall,
                     "setup_s": c.setup, "peak_rss_mb": c.rss_mb,
                     "report_sha256": h}
                    for c, h in zip(p.children, p.hashes)
                ]
            }
            for p in passes
        ],
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "soclecoh" / "cli.py").is_file():
        print(f"no soclecoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    context = run_context()
    # Compile the package once, so no timed child pays for byte-compiling.
    warm = Child(["socle", "--catalog", "quaternion8", "--ell", "2", "--n", "1"], "plain", "warmup")
    if warm.exit_code != 0:
        print(f"warm-up command failed with exit {warm.exit_code}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, context)
        attempted += record["attempted"]
        failed += record["failed"]
        correct = correct and not record["failed"]
        if len(names) == 1:
            metrics = record["metrics"]
        else:
            metrics.update({f"{name}.{k}": v for k, v in record["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
