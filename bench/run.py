"""The gridrays benchmark: one command per workload run.

    python3 bench/run.py --workload qi-certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; gridrays is imported from
``src/``. Each workload is a closed loop with one caller and no threads:
the next op starts when the previous one has returned and been checked.
The inputs come from the seed alone. Every op's output is checked against
the benchmark's own oracles (``oracle.py``); a wrong verdict, an
exception, a wrong exit code or a timeout counts as a failed op.

``--trace 0`` prints the end-to-end metrics. Their times are scaled to a
fixed host speed, which a reference job timed between ops measures
(``host_probe``); the wall-clock figures are printed beside them.
``--trace 1`` first runs one traced pass of each other workload, so that
layers this workload never calls still get a figure, then alternates
untraced and traced passes over the same ops until ``--seconds`` are
spent. It derives the per-layer metrics from the spans
(``layers.py``) and reports the tracing overhead. The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from common import BENCH, OUT, ROOT, SRC
from spans import NullTracer, Tracer, layer_totals

MODULES = {"qi-certify": "qi_certify", "ray-queries": "ray_queries",
           "cli-oneshot": "cli_oneshot"}
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: an in-process op still running after this long is interrupted and
#: fails; a workload module may set its own OP_TIMEOUT_S
OP_TIMEOUT_S = 10.0
#: no op starts after this much of a run; the whole run must end in 180 s
HARD_LIMIT_S = 140.0
#: the host speed is probed again after the first op that ends this long
#: after the last probe
PROBE_EVERY_S = 0.3

_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gridrays, gridrays.cli
t1 = time.perf_counter()
import run
run.setup(sys.argv[3], int(sys.argv[4]))
print(json.dumps([t0, t1, time.perf_counter()]))
"""


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op ran past its timeout")


def _loop() -> None:
    """A fixed computation on builtins alone."""
    seen, x = {}, 1
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen[x & 1023] = i


def _bare_process() -> None:
    """A fresh interpreter that imports nothing and does nothing. No
    timeout: with one, ``wait`` polls in growing sleeps, and the time
    would count those sleeps instead of the process."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


#: reference jobs that the code under test cannot change, so that their
#: time follows only the host's speed, each with its time at full speed:
#: the tenth percentile of its times on the 2-core Xeon host the benchmark
#: was written on. Timings are scaled so that their reference takes that
#: long (``Runner.scaled``), so they read close to that host's wall clock.
#: A workload's REFERENCE names the job its ops resemble: in-process
#: Python, or a fresh process.
REFERENCES = {"loop": (_loop, 300e-6), "process": (_bare_process, 7.7e-3)}


def host_probe(reference: str) -> float:
    """The reference job's time now: the best of three, so that an
    interrupt in one of them does not read as a slow host."""
    job = REFERENCES[reference][0]
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        job()
        best = min(best, perf_counter() - t0)
    return best


def load(workload: str):
    return importlib.import_module(MODULES[workload])


def setup(workload: str, seed: int, scale: float = 1.0):
    """Build the seeded inputs of one workload: (module, specs, context)."""
    wl = load(workload)
    specs = wl.build(seed, scale)
    return wl, specs, wl.prepare(specs)


def setup_probes(workload: str, seed: int, count: int) -> list[list[float]]:
    """Time import + input building in ``count`` fresh processes, after
    one untimed process that leaves the bytecode caches warm. Each row is
    (start, imported, built, then the fresh-process host probe)."""
    out = []
    for i in range(count + 1):
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(BENCH), str(SRC),
                               workload, str(seed)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        if i:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]) + [host_probe("process")])
    return out


class Runner:
    """Runs and checks ops one at a time, keeping latencies and failures."""

    def __init__(self, wl, ctx, tracer, deadline: float):
        self.wl, self.ctx, self.tr, self.deadline = wl, ctx, tracer, deadline
        self.timeout = getattr(wl, "OP_TIMEOUT_S", OP_TIMEOUT_S)
        self.reference = getattr(wl, "REFERENCE", "loop")
        self.latencies: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        #: host probes; latency i was timed between probes window[i] and
        #: window[i] + 1
        self.probes: list[float] = []
        self.window: list[int] = []
        self.probe()

    def probe(self) -> None:
        self.probes.append(host_probe(self.reference))
        self.last_probe = perf_counter()

    def scaled(self) -> list[float]:
        """The latencies at reference host speed: each one times the
        reference's full-speed time over the mean of the probes on either
        side of it."""
        p, last = self.probes, len(self.probes) - 1
        full = REFERENCES[self.reference][1]
        return [t * 2 * full / (p[w] + p[min(w + 1, last)])
                for t, w in zip(self.latencies, self.window)]

    def op(self, spec) -> None:
        kind, p = spec
        run, check = self.wl.KINDS[kind]
        tr = self.tr
        self.attempted += 1
        tr.op = self.attempted
        try:
            signal.setitimer(signal.ITIMER_REAL, self.timeout)
            t0 = perf_counter()
            with tr.span("op." + kind):
                out = run(self.ctx, p, tr)
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            check(self.ctx, p, out)
            extra = getattr(self.wl, "traced_extra", None)
            if tr.enabled and extra is not None:
                signal.setitimer(signal.ITIMER_REAL, self.timeout)
                with tr.span("extra." + kind):
                    extra(self.ctx, kind, p, tr)
        except Exception as exc:  # a failed op is counted; the run goes on
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.latencies.append(t1 - t0)
        self.window.append(len(self.probes) - 1)
        if perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe()

    def run_pass(self, specs) -> bool:
        """One pass over the specs; False if the run's hard limit cut it."""
        for spec in specs:
            if perf_counter() > self.deadline:
                self.failed += 1
                self.errors.append("run hit its hard time limit")
                return False
            self.op(spec)
        return True


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            if (git / name).is_file():
                return (git / name).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _peak_rss_mb(ctx) -> float:
    """Peak RSS of the workload process: this one, or for cli-oneshot the
    largest CLI child. A child's figure also counts the pages of the
    process that spawned it, so it only holds while this one is smaller."""
    if "peak_rss_kb" in ctx:
        return ctx["peak_rss_kb"] / 1024
    return _self_rss_mb()


def _timings(lat: list[float], setup_s: float) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, probes: int = SETUP_PROBES) -> tuple[dict, list[str], list[str]]:
    """One benchmark run: (result object, report lines, failure messages)."""
    started = perf_counter()
    deadline = started + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    probe_times = setup_probes(workload, seed, probes)
    setup_wall = statistics.median(t2 - t0 for t0, _, t2, _ in probe_times)
    full = REFERENCES["process"][1]
    setup_s = statistics.median((t2 - t0) * full / ref for t0, _, t2, ref in probe_times)
    wl, specs, ctx = setup(workload, seed, scale)
    tracer = Tracer() if trace else NullTracer()
    for t0, t1, _, _ in probe_times:
        tracer.add("cli.import", t0, t1)
    untraced = Runner(wl, ctx, NullTracer(), deadline)
    passes = {}
    if not trace:
        loop_end = perf_counter() + seconds
        done = untraced.run_pass(specs)
        while done and perf_counter() < min(loop_end, deadline):
            untraced.op(specs[untraced.attempted % len(specs)])
        passes[workload] = untraced.attempted / len(specs)
        runners = [untraced]
    else:
        # one traced pass of each other workload first, inside the same
        # time budget, so that every layer gets a figure
        loop_end = perf_counter() + seconds
        runners = [untraced]
        for other in MODULES:
            if other != workload:
                owl, ospecs, octx = setup(other, seed, scale)
                runners.append(Runner(owl, octx, tracer, deadline))
                runners[-1].run_pass(ospecs)
                passes[other] = 1
        traced = Runner(wl, ctx, tracer, deadline)
        runners.append(traced)
        passes[workload] = 0
        while True:
            t0 = perf_counter()
            if not (untraced.run_pass(specs) and traced.run_pass(specs)):
                break
            passes[workload] += 1
            now = perf_counter()
            if now + (now - t0) > loop_end:  # another pair would overrun
                break
    untraced.probe()  # closes the last window
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    errors = [e for r in runners for e in r.errors]
    lat = untraced.latencies
    prov = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed, 1 caller, no threads",
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "ops": len(lat), "ops_attempted": attempted,
        "passes": passes, "pass_ops": len(specs),
        "percentile_samples": len(lat), "samples_beyond_p90": len(lat) // 10,
        "setup_probes": len(probe_times), "scale": scale,
        "timings": f"scaled to the host speed at which the {untraced.reference!r} "
                   f"reference takes {REFERENCES[untraced.reference][1] * 1e6:g} us",
        "host_probes": len(untraced.probes),
        "host_probe_median_us": statistics.median(untraced.probes) * 1e6,
    }
    lines = [f"# gridrays benchmark: {workload}, seed {seed}, closed loop with 1 caller"]
    if "peak_rss_kb" in ctx and _self_rss_mb() >= _peak_rss_mb(ctx):
        lines.append(f"# warning: this process ({_self_rss_mb():.1f} MB) is not smaller "
                     "than the CLI children, so peak_rss_mb counts it")
    metrics: dict[str, tuple[float, str]] = {}
    e2e, wall = {}, {}
    if lat:
        e2e = {**_timings(untraced.scaled(), setup_s),
               "peak_rss_mb": (_peak_rss_mb(ctx), "MB")}
        wall = _timings(lat, setup_wall)
    if not trace:
        metrics = e2e
    else:
        import layers
        metrics = layers.derive(layer_totals(tracer.spans), passes)
        plain_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
        metrics["trace.untraced_wall_s"] = (plain_s, "s")
        metrics["trace.traced_wall_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{workload}.json", prov)
        lines.append(f"# trace: {len(tracer.spans)} spans -> {OUT / f'trace-{workload}.json'}")
        lines += [f"# untraced {name} {v:.6g} {unit}" for name, (v, unit) in e2e.items()]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    fail_ratio = failed / attempted if attempted else 1.0
    lines.append(f"fail_ratio {fail_ratio:.6g} ({failed} of {attempted} ops failed)")
    lines.append(f"# op_p50_ms and op_p90_ms over {len(lat)} ops "
                 f"({len(lat) // 10} beyond p90); setup_s median of {len(probe_times)} processes")
    lines.append("# wall clock, unscaled: " + ", ".join(
        f"{name} {v:.6g} {unit}" for name, (v, unit) in wall.items()))
    lines.append("# provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridrays" / "__init__.py").is_file():
        print(f"error: no gridrays sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, lines, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for e in errors[:20]:
        print("FAILED " + e, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
