"""Certificate benchmark for covertwist.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single caller and
no threads.  An operation is one CLI command run in-process through
`covertwist.cli.main` on a document generated from the seed, so parsing
and report rendering are timed with the rest.  A pass runs every
operation of the workload once; passes repeat until the next one would
end after S seconds, and at least MIN_PASSES run.  An operation's time is
its fastest in the run: the machine's speed wanders from second to
second, and a slowdown only ever adds time.  Slow spells that last the
whole run are taken out by scaling the times to a reference speed,
measured with `calibration` between operations.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1
every operation also runs a second time with the layers wrapped (see
layers.py), and the run prints the per-layer metrics and the tracing
overhead.  The reports of the first pass are checked against the
benchmark's own computations (checks.py) after the timed passes; every
later or traced execution must reproduce them byte for byte.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".certbench")
MIN_PASSES = 3
CALIBRATION_REF_S = 3.0e-3   # 10th-percentile `calibration` time, reference machine
CALIBRATION_GAP_S = 0.05
CALIBRATION_REPEATS = 3
SETUP_BATCH = 7   # timed set-ups before each of the first MIN_PASSES passes

sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, build_operations  # noqa: E402


def import_program():
    """Import covertwist afresh from this checkout's src/ and return its
    CLI module."""
    if not os.path.isfile(os.path.join(SRC, "covertwist", "__init__.py")):
        raise FileNotFoundError(f"no covertwist sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "covertwist" or n.startswith("covertwist.")]:
        del sys.modules[name]
    import covertwist.cli
    if not os.path.abspath(covertwist.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"covertwist came from {covertwist.cli.__file__}")
    return covertwist.cli


def setup(workload: str, seed: int, workdir: str):
    """Import the program and write the workload's documents."""
    cli = import_program()
    ops = build_operations(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for op in ops:
        path = os.path.join(workdir, op.name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.text)
        op.argv = [op.command, "--input", path, *op.args]
    return cli, ops


def run_op(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process command.
    `cli.main` is looked up per call, so a traced run reaches the wrapper."""
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a crash is a failed operation, not the end of the run
        code = -1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def _calibration_poly(seed: int) -> dict:
    rng = random.Random(seed)
    return {rng.randrange(1 << 40): rng.randrange(-999, 1000) for _ in range(120)}


CAL_P = _calibration_poly(1)
CAL_Q = _calibration_poly(2)


def calibration() -> int:
    """A fixed product of two 120-term sparse polynomials held in dicts,
    written here rather than taken from `covertwist`: the same kind of
    work as the program's inner loops, so it slows when they do."""
    out = {}
    get = out.get
    for a, ca in CAL_P.items():
        for b, cb in CAL_Q.items():
            key = (a + b) & 0xFFFFF
            out[key] = get(key, 0) + ca * cb
    return len(out)


def speed_scale(samples) -> float:
    """Reference time of `calibration` over its 10th-percentile time in
    this run: the factor that brings the run's times to the reference
    speed."""
    return CALIBRATION_REF_S / sorted(samples)[len(samples) // 10]


class Passes:
    """Runs passes, keeps the first pass's outputs, and counts failures
    and any execution that does not reproduce them."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first = None
        self.op_times = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.unstable = set()
        self.calibration_s = []
        self.calibrated = float("-inf")

    def _calibrate(self):
        """Time `calibration` CALIBRATION_REPEATS times, unless that was
        done in the last CALIBRATION_GAP_S."""
        if time.perf_counter() - self.calibrated < CALIBRATION_GAP_S:
            return
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            calibration()
            self.calibrated = time.perf_counter()
            self.calibration_s.append(self.calibrated - t0)

    def _execute(self, i, op):
        self._calibrate()
        code, dt, out, err = run_op(self.cli, op.argv)
        self.attempted += 1
        self.failed += checks.failed(code, out)
        if self.first is not None and (code, out) != self.first[i][:2]:
            self.unstable.add(op.name)
        return dt, (code, out, err)

    def _paired(self, i, op, tracing):
        """An untraced and a traced execution of one operation, the traced
        one first on every other operation; both must print the same."""
        runs = {}
        for traced in ((True, False) if i % 2 else (False, True)):
            with tracing if traced else contextlib.nullcontext():
                runs[traced] = self._execute(i, op)
        (dt, output), (traced_dt, traced_output) = runs[False], runs[True]
        if traced_output[:2] != output[:2]:
            self.unstable.add(op.name)
        return dt, output, traced_dt

    def run(self, seconds: float, tracing=None, set_up=None):
        """Passes until the next would end after `seconds`, at least
        MIN_PASSES of them.  Returns the wall time of each pass.  With
        `set_up`, SETUP_BATCH set-ups run before each of the first
        MIN_PASSES passes, so that their times sample the run's whole
        length, and the program the last one imported runs the pass.
        With `tracing` every operation also runs traced, right before or
        right after the untraced run (alternately, so that neither side
        gains from going second), and the layer metrics and the tracing
        overhead of each pass come back too; pairing the runs keeps a
        drift in the machine's speed out of the overhead."""
        walls = []
        samples = []
        overheads = []
        start = time.perf_counter()
        while True:
            if set_up is not None and len(walls) < MIN_PASSES:
                for _ in range(SETUP_BATCH):
                    self.cli = set_up()
            if tracing is not None:
                tracing.recorder.reset()
            gc.collect()
            times = []
            outputs = []
            overhead = 0.0
            t0 = time.perf_counter()
            for i, op in enumerate(self.ops):
                if tracing is None:
                    dt, output = self._execute(i, op)
                else:
                    dt, output, traced_dt = self._paired(i, op, tracing)
                    overhead += traced_dt - dt
                times.append(dt)
                outputs.append(output)
            walls.append(time.perf_counter() - t0)
            for acc, dt in zip(self.op_times, times):
                acc.append(dt)
            if tracing is not None:
                samples.append(tracing.recorder.metrics())
                overheads.append(overhead)
            if self.first is None:
                self.first = outputs
            spent = time.perf_counter() - start
            if (len(walls) >= MIN_PASSES
                    and spent + statistics.median(walls) > seconds):
                return walls, samples, overheads


def check_outputs(ops, outputs, workload: str, seed: int):
    """Problems per operation name: an operation that failed although it
    is not one that fails today, and any printed report that disagrees
    with the benchmark's own computations."""
    problems = {}
    for op, (code, out, err) in zip(ops, outputs):
        found = []
        if checks.failed(code, out) and not op.fails_today:
            found.append(f"failed with exit code {code}: {err.strip()[:200]}")
        if code == 0 or out:
            rng = random.Random(f"check:{workload}:{seed}:{op.name}")
            found += checks.check_operation(op, out, rng)
        if found:
            problems[op.name] = found
    return problems


def measure(args, workdir: str):
    """(summary, details, trace tables or None) of one run."""
    setups = []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        cli, _ = setup(args.workload, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
        return cli

    cli, ops = setup(args.workload, args.seed, workdir)
    passes = Passes(cli, ops)
    metrics = {}
    measured = {}
    trace_tables = None
    if args.trace:
        tracing = layers.Tracing(layers.Recorder())
        walls, samples, overheads = passes.run(args.seconds, tracing)
        for name, unit in layers.METRICS.items():
            metrics[name] = (statistics.median(s[name] for s in samples), unit)
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        trace_tables = {"overhead_s": overheads, "passes": samples}
    else:
        walls, _, _ = passes.run(args.seconds, set_up=set_up)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        best = [min(t) for t in passes.op_times]
        scale = speed_scale(passes.calibration_s)
        measured = {"measured_wall_s": sum(best),
                    "measured_op_p50_s": statistics.median(best),
                    "measured_setup_s": statistics.median(setups),
                    "speed_scale": scale}
        metrics["wall_s"] = (measured["measured_wall_s"] * scale, "s")
        metrics["op_p50_s"] = (measured["measured_op_p50_s"] * scale, "s")
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
        metrics["setup_s"] = (statistics.median(setups) * scale, "s")

    problems = check_outputs(ops, passes.first, args.workload, args.seed)
    for name in sorted(passes.unstable):
        problems.setdefault(name, []).append("a later or traced execution "
                                             "printed a different report")
    summary = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        **measured,
        "problems": problems,
        "failing": {op.name: ("fails today: " if op.fails_today else "")
                    + err.strip() for op, (code, out, err)
                    in zip(ops, passes.first) if checks.failed(code, out)},
        "op_seconds": {op.name: t for op, t in zip(ops, passes.op_times)},
        "pass_wall_s": walls,
        "setup_seconds": setups,
        "calibration_s": passes.calibration_s,
    }
    return summary, details, trace_tables


class Terminated(BaseException):
    """SIGTERM, raised past the per-operation handlers so that the
    generated documents are still removed."""


def _terminate(signum, frame):
    raise Terminated()


def write_json(name: str, obj) -> None:
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tag = f"{args.workload}-{args.seed}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        summary, details, trace_tables = measure(args, workdir)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, entry in summary["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"attempted = {summary['attempted']}, failed = {summary['failed']}")
    for name, err in details["failing"].items():
        print(f"failed: {name}: {err[:300]}")
    for name, found in details["problems"].items():
        for text in found:
            print(f"incorrect: {name}: {text[:300]}")
    if trace_tables is None:
        write_json(f"result-{tag}.json", dict(summary, **details))
    else:
        write_json(f"trace-{tag}.json", dict(summary, **details, **trace_tables))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
