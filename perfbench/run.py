"""cqtcheck benchmark: time to verdict on fixed CLI workloads.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 45 --trace 0

Run from the repository root.  Every step runs in a fresh, single-threaded
interpreter (perfbench/child.py), one at a time:

* set-up: after one warm-up interpreter that compiles the bytecode, each
  round starts SETUPS_PER_PASS fresh interpreters that import cqtcheck.cli
  and build the workload's data; ``setup_s`` is the median over all rounds;
* pass: then the round runs the workload's whole command list, in an order
  the seed permutes, in one more fresh interpreter.

Rounds start while one more fits in ``--seconds``, so set-up samples are
spread over the run like the passes.  ``wall_s`` is the median pass: the
sum over commands of each command's median time over the passes.
``peak_rss_mb`` is the median over passes of each pass's peak resident set
size.

Times are reported at a reference host speed.  The host's speed drifts by
up to 1.8x in phases of seconds to minutes, longer than a run.  So each
child times a fixed piece of stdlib arithmetic (child.host_probe) with
every measurement: every half second while a command runs
(child.HostSampler), and after each set-up.  A measured time t taken while
the probe took p seconds is reported as t * REFERENCE_PROBE_S / p.  The
measured times are printed as well.

With ``--trace 1`` the run makes one untraced and one traced pass in the
same order and reports the per-layer metrics of layers.py instead; the
traced pass's spans go to perfbench/out/.  Every command's verdict is
checked against the hand-written expectations of workloads.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 2
RUN_LIMIT = 170  # seconds; a child still running then is killed
# child.host_probe() on the reference host (2.1 GHz Xeon VM, Python 3.11)
# in its fast phase; times are reported at this host speed
REFERENCE_PROBE_S = 0.002

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def child(deadline, *args):
    """Run perfbench/child.py in a fresh interpreter; its JSON result.

    The child is killed, and waited for, if it runs past the deadline
    (a time.perf_counter value).
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def check_verdicts(commands, got):
    """Labels of the commands whose verdict differs from the expected one."""
    return [cmd.label() for cmd, v in zip(commands, got)
            if workloads.Verdict(v[0], tuple(v[1]) if v[1] else None,
                                 v[2], v[3]) != cmd.expect]


def one_pass(deadline, name, order, trace, spans_path=None):
    args = ["pass", name, ",".join(map(str, order)), str(trace)]
    if spans_path:
        args.append(spans_path)
    return child(deadline, *args)


class Tally:
    """Commands attempted and the labels of those with a wrong verdict."""

    def __init__(self, commands):
        self.commands = commands
        self.attempted = 0
        self.failures = []

    def record(self, order, result):
        self.attempted += len(order)
        self.failures += check_verdicts([self.commands[k] for k in order],
                                        result["verdicts"])


def at_reference(seconds, probe_s):
    """A time measured while host_probe() took probe_s, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def measure(deadline, name, rng, seconds, tally):
    """End-to-end metric values from rounds of set-up samples and a pass."""
    commands = tally.commands
    child(deadline, "setup", name)  # compiles the bytecode; not timed
    per_command = [[] for _ in commands]
    setups, raw_setups, walls, rss, rounds = [], [], [], [], []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= seconds):
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            sample = child(deadline, "setup", name)
            raw_setups.append(sample["setup_s"])
            setups.append(at_reference(sample["setup_s"], sample["probe_s"]))
        order = rng.sample(range(len(commands)), len(commands))
        result = one_pass(deadline, name, order, 0)
        rounds.append(time.perf_counter() - t0)
        tally.record(order, result)
        for k, t, p in zip(order, result["times"], result["probes"]):
            per_command[k].append(at_reference(t, p))
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
    print(f"{len(walls)} passes; measured wall per pass "
          + " ".join(f"{w:.3f}" for w in walls)
          + f" s; measured setup median {statistics.median(raw_setups):.4f} s")
    return {
        "wall_s": sum(statistics.median(ts) for ts in per_command),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def trace(deadline, name, rng, seed, tally):
    """Per-layer metric values from one untraced and one traced pass."""
    order = rng.sample(range(len(tally.commands)), len(tally.commands))
    plain = one_pass(deadline, name, order, 0)
    tally.record(order, plain)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"spans-{name}-{seed}.json")
    traced = one_pass(deadline, name, order, 1, spans)
    tally.record(order, traced)
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (
        at_reference(traced["wall_s"], traced["probes"][0])
        / sum(map(at_reference, plain["times"], plain["probes"])))
    return values


def run(name, seed, seconds, traced):
    deadline = time.perf_counter() + RUN_LIMIT
    tally = Tally(workloads.WORKLOADS[name])
    rng = random.Random(seed)
    if traced:
        values = trace(deadline, name, rng, seed, tally)
        units = [(n, u) for n, u, _ in layers.PER_LAYER]
    else:
        values = measure(deadline, name, rng, seconds, tally)
        units = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u in units}
    for label in tally.failures:
        print(f"verdict mismatch: {label}")
    for n, m in metrics.items():
        print(f"{n} {m['value']:.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"failed_share {failed / tally.attempted:.6g} ratio "
          f"({failed} of {tally.attempted} commands)")
    return {"correct": not failed, "attempted": tally.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cqtcheck", "cli.py")):
        print(f"error: no cqtcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
