"""clusterkit benchmark: seeded closed-loop workloads over the public API.

Run from the root of a source checkout (clusterkit is imported from ./src):

    python3 perfbench/run.py --workload membership --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload membership --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --workload certify --seed 1 --check

One client sends one op at a time and the next only after the previous one
returns.  Ops come in rounds, one op per cell of the workload's
stratification, and a run always finishes the round it is in, so every run
measures whole rounds of the same mix.  Every op's verdict is compared with
an answer computed without clusterkit (see gen.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see tracer.py); --check runs one round untimed and only
checks the answers.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import drive  # noqa: E402
import gen  # noqa: E402
import tracer as spans  # noqa: E402

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 60
# Speed correction (see README): a fixed kernel is timed every CAL_INTERVAL_S
# between ops; times are divided by (median kernel time / CAL_REFERENCE_S)
# ** CAL_ELASTICITY, the measured response of op times to the kernel's.
CAL_INTERVAL_S = 0.25
CAL_REFERENCE_S = 0.010
CAL_ELASTICITY = 0.5


class SetupError(RuntimeError):
    pass


def import_clusterkit():
    """clusterkit and clusterkit.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "clusterkit" / "__init__.py").is_file():
        raise SetupError(f"no clusterkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clusterkit
    import clusterkit.cli

    if Path(clusterkit.__file__).resolve().parent != (SRC / "clusterkit").resolve():
        raise SetupError(f"imported clusterkit from {clusterkit.__file__}, not from {SRC}")
    return clusterkit, sys.modules["clusterkit.cli"]


def prepared_round(stream: gen.OpStream, r: int, ck, cli) -> list[tuple[dict, object]]:
    """Generate round r, pass it through its JSON text form, and parse the inputs."""
    ops = [json.loads(line) for line in stream.text_of_round(r).splitlines()]
    return [(op, drive.prepare(op, ck, cli)) for op in ops]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


_CAL_A = {(i, j, (i * j) % 3): (i + 2 * j) % 7 + 1 for i in range(10) for j in range(10)}
_CAL_B = {(i, (5 * i) % 4, j): (3 * i + j) % 5 + 1 for i in range(8) for j in range(8)}


def calibration_kernel() -> int:
    """A fixed sparse product of dict-of-tuple polynomials; it never calls clusterkit."""
    acc: dict[tuple, int] = {}
    for ea, ca in _CAL_A.items():
        for eb, cb in _CAL_B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return len(acc)


class Phase:
    """Latencies and verdicts of a run over whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.elapsed = 0.0
        self.checks_run = 0

    @property
    def busy(self) -> float:
        """Loop seconds outside the calibration kernel."""
        return self.elapsed - sum(self.calibrations)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference box ops ran, from the kernel timings."""
        return (statistics.median(self.calibrations) / CAL_REFERENCE_S) ** CAL_ELASTICITY


def run_rounds(stream, ck, cli, *, seconds: float | None, rounds: int | None, tracer=None) -> Phase:
    """Closed loop over whole rounds, until `seconds` have passed or `rounds` are done."""
    phase = Phase()
    clock = time.perf_counter
    t_start = clock()
    next_cal = t_start
    r = 0
    while True:
        for op, fn in prepared_round(stream, r, ck, cli):
            if clock() >= next_cal:
                t0 = clock()
                calibration_kernel()
                phase.calibrations.append(clock() - t0)
                next_cal = clock() + CAL_INTERVAL_S
            if tracer is not None:
                tracer.current_op = phase.attempted
            phase.attempted += 1
            t0 = clock()
            try:
                observed = fn()
            except Exception as exc:  # a raising op is a failed op; the run goes on
                phase.latencies.append(clock() - t0)
                phase.failures.append(f"{op['id']} {op['cell']}: {type(exc).__name__}: {exc}")
                continue
            phase.latencies.append(clock() - t0)
            phase.checks_run += observed.get("checks", 0)
            if not drive.matches(observed, op["expect"]):
                phase.failures.append(f"{op['id']} {op['cell']}: observed {observed}, expected {op['expect']}")
        r += 1
        done = r >= rounds if rounds is not None else clock() - t_start >= seconds
        if done:
            break
    phase.elapsed = clock() - t_start
    phase.rounds = r
    return phase


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_SAMPLES samples beyond it (nearest rank).

    With too few samples for any such percentile, the maximum (p100).
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_SAMPLES:
            return p, xs[rank - 1]
    return 100, xs[-1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first op being ready, several times."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError("set-up probe timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed: {err.strip()}")
        times.append(t1 - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clusterkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def print_record(fields: dict) -> None:
    for key, value in fields.items():
        print(f"# {key}: {value}")


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")


def emit(attempted: int, failures: list[str], metrics: dict) -> None:
    for line in failures[:10]:
        print(f"FAILED {line}")
    if len(failures) > 10:
        print(f"FAILED ... and {len(failures) - 10} more")
    print_metrics(metrics)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))


def base_record(args, stream: gen.OpStream) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "round_size": len(stream.round(0)),
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def timed(args, ck, cli, stream) -> int:
    setup = measure_setup(args.workload, args.seed)
    phase = run_rounds(stream, ck, cli, seconds=args.seconds, rounds=None)
    rss = peak_rss_mb()
    slowdown = phase.slowdown
    lat_ms = [x * 1000 / slowdown for x in phase.latencies]
    tail_p, tail = tail_percentile(lat_ms)
    failed = len(phase.failures)
    record = base_record(args, stream) | {
        "mode": "timed",
        "clients": "1, closed loop",
        "rounds": phase.rounds,
        "ops_per_run": phase.attempted,
        "ops_digest": stream.digest(phase.rounds),
        "measured_s": round(phase.elapsed, 3),
        "slowdown": f"{slowdown:.4f} from {len(phase.calibrations)} kernel timings (median {statistics.median(phase.calibrations) * 1000:.3f} ms); the times below are divided by it",
        "raw_throughput_ops_s": f"{phase.attempted / phase.busy:.4f}",
        "raw_latency_p50_ms": f"{statistics.median(phase.latencies) * 1000:.4f}",
        "raw_setup_s": f"{statistics.median(setup):.4f}",
        "latency_samples": len(lat_ms),
        "latency_tail_percentile": f"p{tail_p} ({len(lat_ms) - math.ceil(tail_p * len(lat_ms) / 100)} samples beyond it)",
        "setup_samples": len(setup),
        "setup_s_all": " ".join(f"{x:.4f}" for x in setup),
        "failed_ratio": f"{failed / phase.attempted:.4f} ({failed} of {phase.attempted})",
    }
    print_record(record)
    values = {
        "throughput_ops_s": phase.attempted / phase.busy * slowdown,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "setup_s": statistics.median(setup) / slowdown,
        "peak_rss_mb": rss,
    }
    emit(phase.attempted, phase.failures, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()})
    return 0


def traced(args, ck, cli, stream) -> int:
    plain = run_rounds(stream, ck, cli, seconds=args.seconds / 2, rounds=None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        phase = run_rounds(stream, ck, cli, seconds=None, rounds=plain.rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.counters["presets.checks_run"] = phase.checks_run
    values = tracer.layer_metrics(phase.attempted)
    untraced_tput = plain.attempted / plain.busy * plain.slowdown
    traced_tput = phase.attempted / phase.busy * phase.slowdown
    values["trace.untraced_ops_s"] = untraced_tput
    values["trace.traced_ops_s"] = traced_tput
    values["trace.overhead_ratio"] = 1 - traced_tput / untraced_tput
    values["trace.spans"] = tracer.span_count() / max(phase.attempted, 1)
    violations = spans.zero_work_violations(args.workload, values)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz"
    tracer.write(spans_path)
    record = base_record(args, stream) | {
        "mode": "traced",
        "rounds": plain.rounds,
        "ops_per_run": phase.attempted,
        "ops_digest": stream.digest(plain.rounds),
        "untraced_s": round(plain.elapsed, 3),
        "traced_s": round(phase.elapsed, 3),
        "spans": tracer.span_count(),
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "absent": ", ".join(tracer.absent) or "none",
        "zero_work_predictions": "hold" if not violations else f"{len(violations)} violated",
    }
    print_record(record)
    for line in violations:
        print(f"ZERO-WORK VIOLATION {line}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in spans.LAYER_METRICS.items()}
    failures = plain.failures + phase.failures
    emit(plain.attempted + phase.attempted, failures, metrics)
    return 0


def check(args, ck, cli, stream) -> int:
    phase = run_rounds(stream, ck, cli, seconds=None, rounds=1)
    print_record(base_record(args, stream) | {"mode": "check", "ops_digest": stream.digest(1)})
    for line in phase.failures:
        print(f"FAILED {line}")
    print(f"{phase.attempted - len(phase.failures)} of {phase.attempted} ops match the independent answers")
    return 0 if not phase.failures else 1


def all_workloads(args) -> int:
    """Run every workload in its own process and print each end-to-end metric with its unit."""
    ok = True
    rows = []
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith("#") and "digest" not in line) or proc.stderr)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_ratio", result["failed"] / result["attempted"], "ratio"))
    print(f"{'workload':<16} {'metric':<52} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<52} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="run one round untimed and check every answer")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return all_workloads(args)
    try:
        ck, cli = import_clusterkit()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stream = gen.OpStream(args.workload, args.seed)
    if args.probe_setup:
        prepared_round(stream, 0, ck, cli)
        print("ready", flush=True)
        return 0
    if args.check:
        return check(args, ck, cli, stream)
    try:
        return traced(args, ck, cli, stream) if args.trace else timed(args, ck, cli, stream)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
