"""One step of the benchmark, run in a fresh interpreter by run.py.

    python3 perfbench/child.py setup <workload>
    python3 perfbench/child.py pass <workload> <order> <trace> [<spans path>]

``setup`` imports cqtcheck.cli and builds the workload's data the way the
CLI does for each command (``cli.load_input``: ``catalog.resolve`` or the
document parse).  ``pass`` runs the workload's commands in the given order
(comma-separated indices) in this process, as ``cqtcheck`` runs them; with
trace 1 it wraps the package's layers first and writes the spans to the
given path.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up time starts before the package import

import os  # noqa: E402  (already loaded by the interpreter's start-up)
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cqtcheck import cli  # noqa: E402

T1 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from cqtcheck.errors import CqtError, ParseError  # noqa: E402
from cqtcheck.scalars import parse_scalar  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def host_probe() -> float:
    """Seconds a fixed piece of exact arithmetic takes now (median of 3).

    The host's speed drifts by up to 1.8x in phases of seconds to minutes.
    Timing the same stdlib-only work right next to each measurement tells
    run.py how fast the host was at that moment.  The collector is off, so
    garbage left by the measured code is not collected inside the probe.
    """
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for i in range(1, 400):
                a, b = Fraction(i, i + 1), Fraction(i + 2, i + 3)
                a * b - a + b
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()


class HostSampler:
    """Times a stretch of work and samples the host's speed inside it.

    A timer signal every PERIOD seconds interrupts the work to run
    host_probe().  The probes' own time is left out of ``seconds`` and of
    ``clock()``, which a Tracer can use so that no probe lands in a span.
    Each piece of work between two probes is weighted by the mean of those
    two probes, and ``probe_s`` is the single probe time that gives the
    whole stretch the same weight, so that it can be scaled like a time
    with one probe.
    """

    PERIOD = 0.5

    def __init__(self):
        self.seconds = 0.0
        self.paused = 0.0     # time spent in probes
        self._weighted = 0.0  # sum of piece / mean probe around it

    def clock(self) -> float:
        """time.perf_counter() without the time spent in probes."""
        return time.perf_counter() - self.paused

    def __enter__(self):
        self._probe = host_probe()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        self._start = self.clock()
        return self

    def _sample(self, signum=None, frame=None):
        end = self.clock()
        before = time.perf_counter()
        probe = host_probe()
        self.paused += time.perf_counter() - before
        piece = end - self._start
        self.seconds += piece
        self._weighted += piece / ((self._probe + probe) / 2)
        self._probe = probe
        self._start = self.clock()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.probe_s = self.seconds / self._weighted
        return False


def setup(commands) -> float:
    start = time.perf_counter()
    for key in dict.fromkeys((c.input, c.eval) for c in commands):
        name, t_eval = key
        value = None
        if t_eval:
            value = parse_scalar(t_eval.removeprefix("t=")).constant_value()
        cli.load_input(name, value)
    return (T1 - T0) + (time.perf_counter() - start)


def run_command(cmd):
    """(exit code, report text) of one command, the way cqtcheck runs it.

    ``check`` calls dispatch and emit_report with an explicit stream, since
    emit_report's default stream is bound at import; ``mor`` calls main
    under redirection.  An exception other than the CLI's own error types
    is recorded as exit code -1.
    """
    out = io.StringIO()
    try:
        if cmd.kind == "check":
            cfg = cli.RunConfig(input=cmd.input, eval_expr=cmd.eval)
            try:
                code, rows, summary = cli.dispatch(cfg)
            except (ParseError, CqtError) as exc:
                return 2, f"error: {exc}"
            code = max(code, cli.emit_report(rows, cfg.input, summary,
                                             stream=out))
        else:
            with contextlib.redirect_stdout(out):
                code = cli.main(cmd.argv())
    except Exception:  # noqa: BLE001 - a crash is a failed command, not a stop
        traceback.print_exc(file=sys.stderr)
        return -1, out.getvalue()
    return code, out.getvalue()


def run_pass(commands, tracer=None, sampler=None):
    """Run commands once.

    Returns (wall seconds, [(exit, text)], [command seconds], probes).
    Untraced, each command is timed by its own HostSampler and probes holds
    their probe_s.  Traced, the tracer's clock must be sampler.clock; the
    wall time is the bench.pass span, no command is timed on its own, and
    probes holds the pass's probe_s.
    """
    results, times = [], []
    if tracer is None:
        probes = []
        for cmd in commands:
            with HostSampler() as command_sampler:
                results.append(run_command(cmd))
            times.append(command_sampler.seconds)
            probes.append(command_sampler.probe_s)
        return sum(times), results, times, probes
    with sampler, tracer.span("bench.pass"):
        for cmd in commands:
            tracer.forget()
            with tracer.span("bench.command"):
                results.append(run_command(cmd))
    return tracer.inclusive["bench.pass"], results, times, [sampler.probe_s]


def main(argv):
    mode, name = argv[0], argv[1]
    commands = workloads.WORKLOADS[name]
    if not os.path.abspath(cli.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"cqtcheck imported from {cli.__file__}, "
                         f"not from {ROOT}/src")
    if mode == "setup":
        seconds = setup(commands)
        print(json.dumps({"setup_s": seconds, "probe_s": host_probe()}))
        return
    order = [int(k) for k in argv[2].split(",")]
    traced = argv[3] == "1"
    cmds = [commands[k] for k in order]
    tracer = sampler = None
    if traced:
        sampler = HostSampler()
        tracer = Tracer(clock=sampler.clock)
        layers.install(tracer)
    wall, results, times, probes = run_pass(cmds, tracer, sampler)
    if tracer is not None:
        tracer.uninstall()
    verdicts = [workloads.parse_verdict(c.kind, code, text)
                for c, (code, text) in zip(cmds, results)]
    payload = {
        "wall_s": wall,
        "times": times,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": [[v.exit, v.tallies, v.mor_dim, v.poincare]
                     for v in verdicts],
    }
    if tracer is not None:
        payload["layers"] = layers.metrics(tracer)
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
            fh.write("\n")
    print(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1:])
