"""Run one benchmark workload against the wellqc CLI and print its metrics.

    python3 perfbench/run.py --workload train_cnn --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client runs ops in a closed loop for ``--seconds`` after set-up and a
warm-up op. With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` ops alternate between untraced and
traced, and it carries the per-layer metrics. A fuller record (host, digests,
samples, per-batch breakdown, spans) goes to ``.perfbench/results/``. The
program's own stdout, stderr and log go to ``program.log`` in the run's work
directory, never to the terminal. See perfbench/README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
]


class OpFailed(Exception):
    """A CLI call returned a non-zero exit code."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
    }


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_call(cli, sink):
    """Run ``wellqc <argv>`` in-process with its output in ``sink``; raise OpFailed on a non-zero exit."""

    def call(argv):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(argv))
        if rc != 0:
            raise OpFailed(f"wellqc {argv[0]} exited with {rc}")

    return call


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Checks:
    """Digest and quality bookkeeping across ops."""

    def __init__(self, workload):
        self.workload = workload
        self.digests = {}  # key -> {artifact: sha256}
        self.mismatches = []
        self.quality = {}  # key -> value at first occurrence
        self.errors = []

    def record(self, result) -> None:
        seen = self.digests.setdefault(result.key, {})
        for name, path in result.artifacts.items():
            digest = sha256(path)
            if seen.setdefault(name, digest) != digest:
                self.mismatches.append(f"{result.key}/{name}")
        if result.key not in self.quality:
            try:
                self.quality[result.key] = self.workload.quality(result)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.errors.append(f"{result.key}: {exc}")


def run_ops(workload, call, checks, sink, seconds, tracer=None, first_index=0):
    """Closed loop for ``seconds``; with a tracer, every second op is traced."""
    records = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while True:
        traced = tracer is not None and (index - first_index) % 2 == 1
        for out_dir in workload.outputs(index):
            shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()  # so that collecting the last op's garbage does not land in this op's time
        if traced:
            tracer.install()
            op_span = tracer.begin("bench.op", new_trace=True)
        result, failure = None, None
        t0 = time.perf_counter()
        try:
            result = workload.op(call, index)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            failure = f"{type(exc).__name__}: {exc}"
            sink.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end(op_span)
                tracer.uninstall()
        if result is not None:
            checks.record(result)
        records.append({"index": index, "seconds": elapsed, "traced": traced,
                        "items": result.items if result else 0, "failure": failure})
        index += 1
        if time.perf_counter() >= deadline and len(records) >= (2 if tracer else 1):
            return records


def end_to_end(records, setup_times):
    ok = [r for r in records if r["failure"] is None]
    lat = [r["seconds"] for r in ok]
    tail_p = measure.tail_percentile(len(lat)) if lat else 50
    metrics = {
        "setup_s": measure.median(setup_times),
        "items_per_s": sum(r["items"] for r in ok) / sum(lat) if lat else 0.0,
        "op_ms_p50": 1e3 * measure.nearest_rank(lat, 50) if lat else 0.0,
        "op_ms_tail": 1e3 * measure.nearest_rank(lat, tail_p) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"percentile": tail_p, "samples": len(lat)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wellqc").is_dir():
        print(f"perfbench: no program to run: {ROOT / 'src' / 'wellqc'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wellqc.cli as cli
        from wellqc.nn.arch import default_architecture
        import tracing
        from workloads import BASELINE_SEED, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = fresh_dir(ROOT / ".perfbench" / "work" / tag)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    checks = Checks(workload)

    with open(work / "program.log", "w", encoding="utf-8") as sink:
        # The CLI's logging.basicConfig is a no-op once the root logger has a handler.
        handler = logging.StreamHandler(sink)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logging.getLogger().addHandler(handler)
        logging.getLogger().setLevel(logging.INFO)
        call = make_call(cli, sink)

        setup_times = []
        try:
            for i in range(1 if args.trace else SETUP_REPEATS):
                os.chdir(fresh_dir(work / f"setup{i}"))
                t0 = time.perf_counter()
                workload.setup(call, args.seed)
                setup_times.append(time.perf_counter() - t0)
            warmup = run_ops(workload, call, checks, sink, seconds=0)
        except (OpFailed, OSError, ValueError) as exc:
            print(f"perfbench: set-up of {args.workload} failed: {exc} (see {work / 'program.log'})", file=sys.stderr)
            return 1
        if warmup[0]["failure"]:
            print(f"perfbench: warm-up op failed: {warmup[0]['failure']} (see {work / 'program.log'})",
                  file=sys.stderr)
            return 1

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(tracing.wellqc_targets(tracing.layer_table(default_architecture())))
        records = run_ops(workload, call, checks, sink, args.seconds, tracer=tracer, first_index=1)
        os.chdir(ROOT)
        logging.getLogger().removeHandler(handler)
    for setup_dir in work.glob("setup*"):  # program.log stays for inspection
        shutil.rmtree(setup_dir)

    failed = sum(1 for r in records if r["failure"])
    val_accuracy = measure.median(list(checks.quality.values())) if checks.quality else 0.0
    problems = [f"{failed} failed ops"] if failed else []
    problems += [f"artifact differs from an earlier repeat: {m}" for m in checks.mismatches]
    problems += [f"malformed output: {e}" for e in checks.errors]
    if workload.gate_accuracy and args.seed == BASELINE_SEED and val_accuracy <= 0.5:
        problems.append(f"val_accuracy {val_accuracy:.4f} does not beat chance on the baseline seed")

    result = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "ops": len(records),
        "ops_failed": failed,
        "problems": problems,
        "digests": checks.digests,
        "val_accuracy": val_accuracy,
        "setup_samples_s": setup_times,
        "op_samples_s": [r["seconds"] for r in records],
    }
    lines = []
    if args.trace:
        traced = [r["seconds"] for r in records if r["traced"] and not r["failure"]]
        plain = [r["seconds"] for r in records if not r["traced"] and not r["failure"]]
        overhead = measure.median(traced) / measure.median(plain) - 1 if traced and plain else 0.0
        metrics, breakdown = tracing.layer_metrics(tracer.spans, traced_ops=max(1, len(traced)))
        metrics["trace.overhead_share"] = overhead
        units = dict(tracing.PER_LAYER)
        spans_path = results_dir / f"{tag}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        result.update(per_layer=metrics, per_batch=breakdown, spans=str(spans_path.relative_to(ROOT)))
    else:
        metrics, tail = end_to_end(records, setup_times)
        units = dict(END_TO_END)
        alias = metrics["items_per_s"] * workload.alias_scale
        lines.append(f"{workload.items_alias} {alias:.6g} {workload.items_unit}")
        if args.workload == "scan_qc":
            lines.append(f"frame_ms_p50 {metrics['op_ms_p50']:.6g} ms")
            lines.append(f"frame_ms_tail {metrics['op_ms_tail']:.6g} ms "
                         f"(p{tail['percentile']} of {tail['samples']} frames)")
        result.update(end_to_end=metrics, tail=tail, aliases={workload.items_alias: alias})
    lines.append(f"val_accuracy {val_accuracy:.4f} fraction")
    lines += [f"ops {len(records)}", f"ops_failed {failed}"]

    bad_names = [n for n in metrics if not measure.valid_metric_name(n)]
    if bad_names:
        raise ValueError(f"invalid metric names: {bad_names}")
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    host = result["host"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']['name']} {host['blas']['version']} threads_env={host['threads_env']} "
          f"commit={host['git_commit']}")
    print(f"results: {(results_dir / f'{tag}.json').relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
