"""vrident benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload evaluate_matrix --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/``. A run synthesizes its inputs from ``--seed`` (the set-up phase),
then repeats the workload's operation for ``--seconds`` and checks each
operation's outputs. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics of the traced ones. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in its own process, one after another.

Work files go to ``.perfbench_work/`` (removed at exit) and a record of each
run, with machine info and, for traced runs, every span, to
``.perfbench_out/``, both at the checkout root.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("evaluate_matrix", "identify_gbm", "importance_forest")
#: Set-up passes per run; set-up time is their median.
SETUP_REPEATS = 3
#: Output digests of one seed. They are compared only on
#: a machine whose numpy and BLAS thread count match the recording, because
#: BLAS results (and so the report bytes) depend on both.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))


def log(line: str) -> None:
    print(f"perfbench: {line}", flush=True)


# ---- machine info -------------------------------------------------------------------

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the program's source, which identifies it where git does not."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---- one workload -------------------------------------------------------------------

def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "vrident" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/vrident", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for var in ("VRIDENT_OUT_DIR", "VRIDENT_JOBS"):
        os.environ.pop(var, None)
    # one BLAS thread, set before numpy loads: steadier times on a small
    # shared machine, and output bytes that do not depend on the core count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    start = time.perf_counter()
    import workloads  # numpy and the whole program

    import_s = time.perf_counter() - start

    if not sys.modules["vrident"].__file__.startswith(str(src)):
        print("perfbench: vrident was not imported from this checkout", file=sys.stderr)
        return 2

    machine = machine_info()
    log(f"machine {json.dumps(machine, sort_keys=True)}")
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        expected = None
        if args.seed == EXPECTED["seed"]:
            recorded = EXPECTED["recorded_with"]
            if all(machine[key] == value for key, value in recorded.items()):
                expected = EXPECTED[args.workload]
            else:
                log(f"digests not compared: they were recorded with {recorded}")
        work = workloads.WORKLOADS[args.workload](args.seed, workdir, expected)
        return _measure(args, work, import_s, machine)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(fn):
    """Run ``fn`` with every layer patched; returns (seconds, result, spans)."""
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        seconds, result = _timed(fn)
    finally:
        tracing.uninstall(undo)
    return seconds, result, recorder.spans


def _measure(args, work, import_s, machine) -> int:
    trace = args.trace == 1
    setup_times, setup_phases = [], []
    for _ in range(SETUP_REPEATS):
        if trace:
            seconds, _, spans = _traced(work.setup)
            setup_phases.append(tracing.phase_metrics(spans))
        else:
            seconds, _ = _timed(work.setup)
        setup_times.append(seconds)
    setup_s = import_s + statistics.median(setup_times)

    plain, traced, op_phases, all_spans = [], [], [], []
    counts = {"attempted": 0, "failed": 0}
    digests: list[str] = []

    def operation(use_trace: bool):
        """One checked operation; returns (seconds, spans, cpu seconds), or
        None when it failed."""
        work.prepare()
        gc.collect()
        counts["attempted"] += 1
        cpu0 = time.process_time()
        spans = None
        try:
            if use_trace:
                seconds, output, spans = _traced(work.run)
            else:
                seconds, output = _timed(work.run)
            cpu_s = time.process_time() - cpu0
            digest, problems = work.check(output)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            counts["failed"] += 1
            log(f"operation {counts['attempted']} raised:\n{traceback.format_exc()}")
            return None
        digest = json.dumps(digest, sort_keys=True)
        if digests and digest != digests[0]:
            problems.append(f"output digest {digest} differs from the first operation's")
        if digest not in digests:
            digests.append(digest)
        for problem in problems:
            log(f"operation {counts['attempted']} output check failed: {problem}")
        if problems:
            counts["failed"] += 1
            return None
        return seconds, spans, cpu_s

    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        for use_trace in ((False, True) if trace else (False,)):
            done = operation(use_trace)
            if peak_rss_mb is None:
                # Peak memory through set-up and one operation. Read later, it
                # would also hold what the allocator keeps from repeating the
                # operation, which grows with the number of repetitions a run
                # fits in, and so with the speed of the machine.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if done is None:
                continue
            seconds, spans, cpu_s = done
            if use_trace:
                traced.append(seconds)
                phase = tracing.phase_metrics(spans)
                phase["process.cpu_s"] = cpu_s
                op_phases.append(phase)
                all_spans.append([s.__dict__ for s in spans])
            else:
                plain.append(seconds)
        if time.perf_counter() >= deadline:
            break
    attempted, failed = counts["attempted"], counts["failed"]

    for digest in digests:
        log(f"digest {work.name} seed={args.seed} {digest}")
    log(f"setup_s {setup_s:.4f} s (imports {import_s:.4f} s + median of {setup_times})")
    log(f"error_rate {failed / attempted:.4f} ({failed}/{attempted} operations failed)")
    record = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "attempted": attempted,
        "failed": failed,
    }
    metrics = {}
    if trace:
        if op_phases:
            layers = tracing.median_metrics(setup_phases)
            for name, value in tracing.median_metrics(op_phases).items():
                layers[name] += value
            if plain:
                layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
        record["spans"] = all_spans
    elif plain:
        wall = sorted(plain)
        n = len(wall)
        log(f"wall_s median {statistics.median(wall):.4f} s over n={n} operations")
        if n >= 20:
            pct = 100.0 * (n - 10) / n
            log(f"wall_s p{pct:.0f} {wall[n - 11]:.4f} s (10 of {n} operations slower)")
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    for name, metric in metrics.items():
        log(f"{name} {metric['value']!r} {metric['unit']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


# ---- every workload -------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
        if args.trace == 0:
            m = result["metrics"]
            rows.append(
                f"{name:<18} {m['wall_s']['value']:>9.4f} {m['setup_s']['value']:>9.4f} "
                f"{m['peak_rss_mb']['value']:>12.1f} {result['failed'] / result['attempted']:>11.4f}"
            )
    if rows:
        print(f"{'workload':<18} {'wall_s':>9} {'setup_s':>9} {'peak_rss_mb':>12} {'error_rate':>11}")
        print("\n".join(rows))
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
