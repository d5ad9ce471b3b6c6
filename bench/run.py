"""Benchmark of slicepower: one workload, one seed, one process.

    python3 bench/run.py --workload table-build --seed 1 --seconds 15 --trace 0

Runs from a source checkout (it imports ``src/slicepower``).  The
workload's inputs come from ``--seed`` alone.  ``setup_s`` is the median
time a fresh interpreter takes to import slicepower plus the median of
several set-ups.  Then identical rounds run for about ``--seconds``, each
round's outputs are checked, and the throughput is the median over
rounds.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, and it reports the
per-layer metrics of ``layers.py`` from the traced rounds, the tracing
overhead and the share of the timed rounds that top-level spans cover.
Earlier lines print every metric by name and unit.  A full record
(versions, git sha, seed, output digest, the sweep config) and, when
traced, every span are written under ``.perfbench/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(REPO, ".perfbench")
DIGESTS = os.path.join(BENCH, "digests.json")
SETUP_REPEATS = 3

# every workload is single-threaded; keep numpy's BLAS pool to one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("table-build", "sweep-warm", "embb-drops"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD commit of the checkout, or 'unknown' outside a git work tree."""
    git = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import slicepower from SRC."""
    code = "import time; t = time.perf_counter(); import slicepower; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def set_up(wl, tracer):
    """Run the workload's set-up several times; (wall times, traced span ranges)."""
    times, ranges = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install()
            lo = tracer.mark()
        t = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t)
        if tracer:
            tracer.uninstall()
            ranges.append((lo, tracer.mark()))
    return times, ranges


class Rounds:
    """Timed rounds of one workload, their checks and their failure counts.

    Rounds alternate untraced and traced when a tracer is given.  A round
    that raises fails all its operations; a failed check fails the
    operations of its output group, or of the whole round when the check
    names no group.
    """

    def __init__(self, wl, tracer, seconds: float):
        self.walls, self.traced_walls, self.cpus, self.ranges = [], [], [], []
        self.digests, self.problems = [], []
        self.attempted = self.failed = self.count = 0
        min_rounds = 2 if tracer else 1
        deadline = time.perf_counter() + seconds
        while self.count < min_rounds or self._time_left(deadline):
            self._one(wl, tracer if self.count % 2 == 1 else None)
            self.count += 1

    def _time_left(self, deadline: float) -> bool:
        """Another round fits: at least half a typical round is left."""
        half_round = 0.5 * statistics.median(self.walls + self.traced_walls)
        return deadline - time.perf_counter() > half_round

    def _one(self, wl, tracer) -> None:
        if tracer:
            tracer.install()
            lo = tracer.mark()
        t, cpu = time.perf_counter(), time.process_time()
        try:
            out = wl.run_round()
        except Exception:  # reported below; the run goes on
            out = None
            self.problems.append(f"round {self.count}: {traceback.format_exc()}")
        wall = time.perf_counter() - t
        self.cpus.append(time.process_time() - cpu)
        if tracer:
            tracer.uninstall()
            self.ranges.append((lo, tracer.mark()))
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)

        ops = wl.expected_ops()
        self.attempted += ops
        if out is None:
            self.failed += ops
            return
        groups = wl.groups(out)
        bad = set(wl.check(out))
        digest = wl.digest(out)
        if self.digests and digest != self.digests[0]:
            bad |= set(groups)
            self.problems.append(f"round {self.count}: outputs differ from the first round's")
        self.digests.append(digest)
        if bad:
            self.problems.append(f"round {self.count}: failed checks: {sorted(bad)}")
        self.failed += ops if bad - set(groups) else sum(groups[g] for g in bad)


def run(args, workdir: str) -> int:
    import numpy as np

    import layers
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(tracing.TARGETS + (
            ("workloads", "embb_drop", "bench.embb_drop", None),))

    import_s = import_seconds()
    setup_times, setup_ranges = set_up(wl, tracer)
    setup_s = import_s + statistics.median(setup_times)
    rounds = Rounds(wl, tracer, args.seconds)

    ops_per_s = statistics.median(wl.expected_ops() / w for w in rounds.walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(args.workload, {})
    digest = rounds.digests[0] if rounds.digests else None
    identical = None
    if digest and args.scale == "full" and args.seed == recorded.get("seed"):
        identical = digest == recorded.get("sha256")

    named = {
        "setup_s": (setup_s, "s"),
        f"{wl.op_name}_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": (rounds.failed / rounds.attempted, "ratio"),
    }
    if tracer:
        overhead = statistics.median(rounds.traced_walls) / statistics.median(rounds.walls) - 1.0
        per_layer = layers.compute(tracer, setup_ranges, rounds.ranges, overhead,
                                   rounds.traced_walls)
        metrics = {name: {"value": per_layer[name], "unit": layers.UNITS[name]}
                   for name in per_layer}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": git_sha(),
        "rounds": rounds.count, "round_walls_s": rounds.walls,
        "traced_round_walls_s": rounds.traced_walls, "round_cpu_s": rounds.cpus,
        "setup_walls_s": setup_times, "import_s": import_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "layers": metrics if tracer else None,
        "attempted": rounds.attempted, "failed": rounds.failed, "problems": rounds.problems,
        "outputs_sha256": digest, "outputs_identical": identical,
        **wl.info(),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))

    for problem in rounds.problems[:5]:
        print(problem, file=sys.stderr)
    if len(rounds.problems) > 5:
        print(f"... {len(rounds.problems) - 5} more problems in the result record", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} scale={args.scale} rounds={rounds.count} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
          f"git={record['git_sha'][:12]}")
    for name, (value, unit) in named.items():
        print(f"{name} = {value!r} {unit}")
    print(f"outputs_sha256 = {digest}")
    print(f"outputs_identical = {json.dumps(identical)}")
    if tracer:
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": rounds.failed == 0, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slicepower", "__init__.py")):
        print(f"bench: no slicepower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import slicepower

    if not os.path.abspath(slicepower.__file__).startswith(SRC + os.sep):
        print(f"bench: imported slicepower from {slicepower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
