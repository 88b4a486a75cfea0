"""chaosimg benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
`--trace 0` the end-to-end metrics are measured; with `--trace 1` the
timed time is split between an untraced and a traced phase, a tracemalloc
pass follows, and the per-layer metrics are reported. Both modes measure
set-up in fresh interpreters and check the pinned canary digests. A
human-readable report goes to stdout; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. `--out FILE` also
writes the full results, environment included, as JSON.
"""

from __future__ import annotations

import os

# one thread in this process and in every interpreter it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 5  # per batch; one batch before and one after the timed work
MB = 1e6
# Host speed. A shared host runs the same work up to 2.7x slower for
# stretches of seconds to minutes, and process time slows with it. So a
# fixed reference loop, in the mix of the workload's own work, runs between
# the ops for REF_SHARE of the time, and every op's time is divided by the
# host's mean speed over the op and as long again on each side (at least
# REF_WINDOW_S), measured by the reference runs in that window, and scaled
# to a nominal host on which the loop takes REF_S. Parent and change are
# measured on one host, so their ratio is what counts; the text report
# gives the wall times and the host speed as well.
REF_SHARE = 0.05
REF_WINDOW_S = 0.25
REF_S = 5e-3

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chaosimg
t2 = time.perf_counter()
chaosimg.encrypt(chaosimg.PlainImage.from_array(numpy.zeros((2, 2), numpy.uint8)),
                 chaosimg.default_keys())
print(json.dumps([t1 - t0, t2 - t1, time.perf_counter() - t2]))
"""

# reported in the JSON of a traced run; every workload exercises these layers
PER_LAYER = {
    "maps.generate_sequence.self_s": "s", "maps.iterates": "count", "maps.iterate_ns": "ns",
    "maps.permutation_from_sequence.self_s": "s", "maps.argsort_ns_per_value": "ns",
    "maps.argsort_ties": "count", "maps.quantize_to_bytes.self_s": "s",
    "maps.useful_ratio": "ratio",
    "cipher.build_key_schedule.self_s": "s", "cipher.permute.self_s": "s",
    "cipher.permute.calls": "count", "cipher.inverse_permute.self_s": "s",
    "cipher.diffuse_xor.self_s": "s", "cipher.encrypt.self_s": "s", "cipher.decrypt.self_s": "s",
    "cipher.envelope.to_bytes_s": "s", "cipher.envelope.from_bytes_s": "s",
    "cipher.encrypt.peak_alloc_MB": "MB", "cipher.decrypt.peak_alloc_MB": "MB",
    "netpbm.read_image.self_s": "s", "netpbm.write_image.self_s": "s",
    "keyfile.load_key_file.self_s": "s",
    "process.import_numpy_s": "s", "process.import_chaosimg_s": "s", "process.first_call_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unaccounted_ratio": "ratio",
}
# reported by the workloads that reach these layers, in the text and --out file
WORKLOAD_LAYERS = {
    "cli.main.self_s": "s", "cli.main.calls": "count", "cli.main.failures": "count",
    "analysis.bifurcation_sweep.self_s": "s", "analysis.bifurcation_sweep.rows": "count",
    "analysis.lyapunov_exponent.self_s": "s", "analysis.lyapunov_exponent.steps": "count",
    "analysis.phase_points.self_s": "s", "analysis.write_csv.self_s": "s",
    "analysis.write_csv.rows": "count", "analysis.write_csv.bytes": "count",
    "analysis.quality.self_s": "s",
}
END_TO_END = {
    "setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "encrypt_MBps": "MB/s", "decrypt_MBps": "MB/s", "peak_rss_MB": "MB",
}


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


class _Params:
    r = 17.0


def _step(state, params):
    x, y = state
    return math.sin(x) + math.cos(y), y - params.r * math.tanh(x)


def reference(mix: tuple[int, int]) -> float:
    """Wall time of fixed work in the program's mix. `mix` gives the steps
    of a scalar float loop storing into an array, followed by a stable
    argsort, as in the key schedule; and of a loop through a step function
    that reads its parameters by attribute, with floats written as text, as
    in the analyses. It calls nothing in chaosimg, so no change to the
    program moves it."""
    map_steps, step_steps = mix
    sin, cos, tanh = math.sin, math.cos, math.tanh
    t0 = time.perf_counter()
    xs = np.empty(max(mix))
    x, y = 0.1, 0.1
    for i in range(map_steps):
        x, y = sin(x) + cos(y), y - 17.0 * tanh(x)
        xs[i] = x
    np.argsort(xs[:map_steps], kind="stable")
    params = _Params()
    advance = lambda x, y: _step((x, y), params)  # noqa: E731
    for i in range(step_steps):
        x, y = advance(x, y)
        xs[i] = math.log(abs(cos(x)) + 1e-9)
    ",".join(f"{v:.12g}" for v in xs[:step_steps // 8])
    return time.perf_counter() - t0


def host_scale(refs: list[tuple[float, float]], t0: float, dt: float) -> float:
    """Factor from wall time to time on the nominal host for an op that ran
    from t0 for dt: refs are (instant, duration) of reference runs in time
    order."""
    pad = max(dt, REF_WINDOW_S)
    lo = bisect.bisect(refs, (t0 - pad,))
    hi = max(bisect.bisect(refs, (t0 + dt + pad,)), lo + 1)
    near = refs[max(0, min(lo, len(refs) - 1)):hi]
    return REF_S * len(near) / sum(d for _, d in near)


def measure_setup(runs: list, mix: tuple[int, int]) -> None:
    """Fresh interpreters: import numpy, import chaosimg, one 2x2 encrypt.
    Appends (wall on the nominal host, numpy import, chaosimg import, first
    call) per run; the split is in wall time."""
    refs = []
    for _ in range(SETUP_RUNS):
        refs.append((time.perf_counter(), reference(mix)))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-E", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        wall = time.perf_counter() - t0
        refs.append((time.perf_counter(), reference(mix)))
        scale = REF_S / statistics.median(d for _, d in refs[-2:])
        runs.append([wall * scale, *json.loads(done.stdout.splitlines()[-1])])


class Phase:
    """One caller cycles through the ops in order, each starting when the
    previous one returns, until the time is used up (at least once each).
    Reference runs go between the ops (see REF_SHARE). A traced phase runs
    whole cycles, so its counts per cycle repeat."""

    def __init__(self, ops, mix, seconds, tracer=None):
        clock = time.perf_counter
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]    # wall, per op
        self.starts: list[list[float]] = [[] for _ in ops]
        self.refs: list[tuple[float, float]] = []
        self.failed = 0
        self.covered_s = 0.0
        start, i, n = clock(), 0, len(ops)
        ref_s = 0.0

        def more():
            if i < n:
                return True
            if tracer:
                return i % n != 0 or clock() - start + sum(map(min, self.times)) <= seconds
            return clock() - start + min(self.times[i % n]) <= seconds

        while more():
            while not self.refs or ref_s < REF_SHARE * (clock() - start):
                self.refs.append((clock(), reference(mix)))
                ref_s += self.refs[-1][1]
            op = ops[i % n]
            covered0 = tracer.root_s if tracer else 0.0
            t0 = clock()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                dt, ok = clock() - t0, False
                print(f"{op.kind} op raised {exc!r}", file=sys.stderr)
            else:
                dt = clock() - t0
                ok = _checked(op, result)
            if tracer:
                self.covered_s += tracer.root_s - covered0
                tracer.end_op()
            self.times[i % n].append(dt)
            self.starts[i % n].append(t0)
            self.failed += not ok
            i += 1
        end = clock() + REF_SHARE * dt
        while not self.refs or self.refs[-1][0] < end:
            self.refs.append((clock(), reference(mix)))
        self.attempted = i

    def op_s(self) -> list[float]:
        """Each op's median time on the nominal host, over its runs."""
        return [statistics.median(dt * host_scale(self.refs, t0, dt)
                                  for t0, dt in zip(starts, times))
                for starts, times in zip(self.starts, self.times)]

    def wall_s(self) -> list[float]:
        """Each op's median wall time."""
        return [statistics.median(t) for t in self.times]

    def metrics(self, per_op=None) -> dict[str, float]:
        per_op = self.op_s() if per_op is None else per_op
        lat = sorted(dt * 1e3 for dt in per_op)
        out = {"run_s": sum(per_op), "op_p50_ms": percentile(lat, 50), "op_p90_ms": percentile(lat, 90)}
        for kind in ("encrypt", "decrypt"):
            done = [(op.nbytes, dt) for op, dt in zip(self.ops, per_op) if op.kind == kind]
            out[f"{kind}_MBps"] = sum(n for n, _ in done) / sum(dt for _, dt in done) / MB
        return out


def _checked(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception as exc:
        print(f"{op.kind} check raised {exc!r}", file=sys.stderr)
        return False


def memory_pass(ops) -> tuple[dict[str, float], int]:
    """tracemalloc peak above the start of each encrypt/decrypt call, in MB,
    and the number of ops that failed."""
    import tracemalloc

    peaks, failed = {}, 0
    tracemalloc.start()
    try:
        for op in ops:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                print(f"{op.kind} op raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            peak = tracemalloc.get_traced_memory()[1] - base
            failed += not _checked(op, result)
            key = f"cipher.{op.kind}.peak_alloc_MB"
            peaks[key] = max(peaks.get(key, 0.0), peak / MB)
    finally:
        tracemalloc.stop()
    return peaks, failed


def layer_metrics(tracer, phase, untraced_run_s) -> dict[str, float]:
    passes = phase.attempted // len(phase.ops)
    out = {}
    for name, agg in tracer.layers().items():
        out[f"{name}.self_s"] = agg["self_s"] / passes
        out[f"{name}.calls"] = agg["calls"] / passes
    for name, value in tracer.counts.items():
        out[name] = value / passes
    for env in ("to_bytes", "from_bytes"):
        out[f"cipher.envelope.{env}_s"] = out.pop(f"cipher.envelope.{env}.self_s", 0.0)
    gen = out.get("maps.generate_sequence.self_s", 0.0)
    out["maps.iterate_ns"] = gen / out["maps.iterates"] * 1e9 if out.get("maps.iterates") else 0.0
    sort_s = out.get("maps.permutation_from_sequence.self_s", 0.0)
    values = out.get("maps.argsort_values")
    out["maps.argsort_ns_per_value"] = sort_s / values * 1e9 if values else 0.0
    computed = out.get("maps.values_computed")
    out["maps.useful_ratio"] = out.get("maps.values_read", 0.0) / computed if computed else 0.0
    out["cli.main.failures"] = out.get("cli.main.failures", 0.0) + out.get("cli.main.raised", 0.0)
    op_s = sum(map(sum, phase.times))
    out["trace.overhead_ratio"] = phase.metrics()["run_s"] / untraced_run_s
    out["trace.unaccounted_ratio"] = (op_s - phase.covered_s) / op_s
    return out


def environment(args) -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
           "python": platform.python_version(), "numpy": numpy.__version__,
           "seed": args.seed, "workload": args.workload, "seconds": args.seconds}
    try:  # best effort: Linux exposes the model and cache sizes here
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "chaosimg" / "__init__.py").is_file():
        print(f"error: no chaosimg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import canary
    import chaosimg  # noqa: F401  (compiles the package before set-up is timed)
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_runs = []
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        mix = workload.reference_mix
        measure_setup(setup_runs, mix)
        budget = args.seconds / 2 if args.trace else args.seconds
        timed = Phase(workload.ops, mix, budget)
        peak_rss_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        layers, absent, mem_failed = {}, [], 0
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = Phase(workload.ops, mix, budget, tracer)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer, traced, timed.metrics()["run_s"])
            absent = tracer.absent
            peaks, mem_failed = memory_pass(workload.memory_ops)
            layers.update(peaks)
        canaries = canary.check(work)
        measure_setup(setup_runs, mix)
        probes = {name: probe() for name, probe in workload.probes.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup = dict(zip(("setup_s", "process.import_numpy_s", "process.import_chaosimg_s",
                      "process.first_call_s"), map(statistics.median, zip(*setup_runs))))
    phases = [timed, traced] if args.trace else [timed]
    attempted = (sum(p.attempted for p in phases) + len(workload.memory_ops) * args.trace
                 + len(canaries))
    failed = sum(p.failed for p in phases) + mem_failed + sum(not ok for ok in canaries.values())
    e2e = {"setup_s": setup["setup_s"], **timed.metrics(), "peak_rss_MB": peak_rss_MB}

    n_ops = len(timed.ops)
    tail = 100 * (1 - 10 / n_ops) if n_ops >= 20 else None
    lat = sorted(dt * 1e3 for dt in timed.op_s())
    report = {
        "environment": environment(args),
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()},
        "samples": {"ops": n_ops, "runs": timed.attempted, "setup_runs": len(setup_runs),
                    "tail_percentile": tail,
                    "tail_ms": percentile(lat, tail) if tail else None},
        "wall": {**timed.metrics(timed.wall_s()),
                 "reference_ms": statistics.median(d for _, d in timed.refs) * 1e3,
                 "reference_runs": len(timed.refs)},
        "failed_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "canaries": canaries, "known_defect_probes": probes,
    }
    if args.trace:
        layers.update({k: v for k, v in setup.items() if k.startswith("process.")})
        units = {**PER_LAYER, **WORKLOAD_LAYERS}
        report["per_layer"] = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
        report["spans"] = {k: v for k, v in sorted(layers.items()) if k not in units}
        report["absent_targets"] = absent
    print_report(report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in chosen.items()},
    }))
    return 0


def print_report(report) -> None:
    env, s = report["environment"], report["samples"]
    print("chaosimg benchmark  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("end-to-end (untraced):")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<14} {m['value']:12.6g} {m['unit']}")
    tail = (f"p{s['tail_percentile']:.1f}={s['tail_ms']:.6g} ms is the highest percentile"
            f" with >=10 ops beyond it" if s["tail_percentile"] else "fewer than 20 ops")
    print(f"  samples: {s['ops']} ops run {s['runs']} times in all, each op at its median;"
          f" set-up median of {s['setup_runs']} interpreters; {tail}")
    wall = report["wall"]
    print(f"  times are on a nominal host where the reference loop takes {REF_S * 1e3:g} ms;"
          f" here it took {wall['reference_ms']:.4g} ms (median of {wall['reference_runs']})")
    print("  wall: " + "  ".join(f"{k}={v:.6g}" for k, v in wall.items() if not k.startswith("ref")))
    print(f"  failed_ratio   {report['failed_ratio']:.6g} ({report['failed']}/{report['attempted']})")
    bad = [k for k, ok in report["canaries"].items() if not ok]
    print(f"canaries: {len(report['canaries']) - len(bad)}/{len(report['canaries'])} digests match"
          + (f"; MISMATCH: {', '.join(bad)}" if bad else ""))
    for name, outcome in report["known_defect_probes"].items():
        print(f"known-defect probe {name}: {outcome}")
    if "per_layer" in report:
        print("per-layer (traced; times and counts per pass):")
        for name, m in report["per_layer"].items():
            print(f"  {name:<40} {m['value']:12.6g} {m['unit']}")
        if report["absent_targets"]:
            print("  absent: " + ", ".join(report["absent_targets"]))


if __name__ == "__main__":
    sys.exit(main())
