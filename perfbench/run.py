"""vesselmesh benchmark.

    python3 perfbench/run.py --workload reconstruct|evaluate|train --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest [--seed N]

Runs from the root of a source checkout and imports vesselmesh from its
``src`` directory.  A run sets up the workload five times (the median is
``setup_s``), then repeats whole rounds, at least two, until its operations
have been busy for ``--seconds`` of wall time, checks every output, and
prints one JSON object as its last line.  Times in the metrics are CPU
seconds of the process and its children: BLAS runs one thread, so on an
idle machine they equal wall time, and on a shared host they leave out the
time the host took.  Each operation's wall time goes to the report, and a
traced run gives a round's wall and CPU time side by side.  With
``--trace 1`` every round runs twice, untraced and then traced on the same
inputs, and the result holds the per-layer metrics; the spans go to
``perfbench/out/``.  ``--write-manifest`` records the sha256
and size of every artifact of one reconstruct round and one train round in
``perfbench/manifest.json``; later runs with the same seed report any
artifact whose bytes moved.
"""

import os

# one BLAS and OpenMP thread, set before numpy loads: operations run one
# after another, and a threaded BLAS on shared cores inflates small products
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MANIFEST = HERE / "manifest.json"
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import vesselmesh.pipeline"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("reconstruct", "evaluate", "train"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        p.error("--workload is required")
    return args


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    maps = Path("/proc/self/maps")
    libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps.read_text()))) if maps.exists() else []
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One run of one workload: set-up, rounds, checks, metrics."""

    def __init__(self, name: str, seed: int, work: Path, trace: bool):
        # these import vesselmesh, which main() puts on sys.path first
        from checks import Checks
        from tracing import Tracer
        from workloads import WORKLOADS, Ops

        self.ops = Ops()
        self.checks = Checks()
        self.workload = WORKLOADS[name](seed, work, self.ops, self.checks)
        self.tracer = Tracer() if trace else None
        self.setup_s: list[float] = []
        self.traced_rounds = 0
        self.overheads: list[float] = []
        self.distinct = [0, 0]  # distinct rasterized specs: set-up, all traced rounds
        self.setup_mark = 0
        self.setup_counts: dict = {}
        self.total_rounds = 0
        self.round_wall: list[float] = []  # untraced rounds of a traced run
        self.round_cpu: list[float] = []

    def _traced(self, fn, *args):
        """Run fn with the tracer installed; returns the operations' CPU time."""
        cpu = self.ops.cpu_s
        self.tracer.install()
        try:
            fn(*args)
        finally:
            self.tracer.uninstall()
            self.ops.tracer = None
        return self.ops.cpu_s - cpu

    def set_up(self) -> None:
        """Each set-up is a fresh interpreter importing the package, then the inputs."""
        from tracing import cpu_seconds

        for i in range(SETUP_REPEATS):
            start = cpu_seconds()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
            if self.tracer is not None and i == SETUP_REPEATS - 1:
                self.tracer.case = "setup"
                self._traced(self.workload.set_up)
                self.setup_mark = len(self.tracer.spans)
                self.setup_counts = dict(self.tracer.counts)
                self.distinct[0] = len(self.tracer.rasterized_specs)
                self.tracer.rasterized_specs.clear()
            else:
                self.workload.set_up()
            self.setup_s.append(cpu_seconds() - start)

    def measure(self, seconds: float) -> None:
        from workloads import ERROR_ROUNDS

        r = 0
        while True:
            self.ops.round = r
            if self.tracer is None:
                self.workload.run_round(r)
            else:
                wall, cpu = self.ops.busy_s, self.ops.cpu_s
                self.workload.run_round(r)
                untraced = self.ops.cpu_s - cpu
                self.round_wall.append(self.ops.busy_s - wall)
                self.round_cpu.append(untraced)
                self.ops.tracer = self.tracer
                self.overheads.append(self._traced(self.workload.run_round, r) - untraced)
                self.distinct[1] += len(self.tracer.rasterized_specs)
                self.tracer.rasterized_specs.clear()
                self.traced_rounds += 1
            r += 1
            if self.ops.busy_s >= seconds and r >= ERROR_ROUNDS:
                break
        self.total_rounds = r

    def end_to_end(self) -> dict:
        w = self.workload
        latencies = self.ops.latencies(w.latency_kinds)
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_min": (self.ops.per_minute(w.throughput_kinds), "1/min"),
            "latency_s": (statistics.median(latencies) if latencies else 0.0, "s"),
            "output_error": (statistics.fmean(w.output_errors) if w.output_errors else 0.0, "1"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def per_layer(self) -> dict:
        """One set-up plus the mean traced round, per layer."""
        from tracing import COUNTS, STAGES, TIMES

        tr = self.tracer
        n = self.traced_rounds
        setup_self, setup_total = tr.totals(0, self.setup_mark)
        round_self, round_total = tr.totals(self.setup_mark, len(tr.spans))

        def per_run(setup_value, rounds_value):
            return setup_value + rounds_value / n

        out = {}
        for metric, (kind, span) in TIMES.items():
            s, t = (setup_self, round_self) if kind == "self" else (setup_total, round_total)
            out[metric] = (per_run(s.get(span, 0.0), t.get(span, 0.0)), "s")
        out["pipeline.self_s"] = (
            per_run(sum(setup_self.get(s, 0.0) for s in STAGES),
                    sum(round_self.get(s, 0.0) for s in STAGES)), "s")
        for name in COUNTS:
            before = self.setup_counts.get(name, 0.0)
            out[name] = (per_run(before, tr.counts.get(name, 0.0) - before), "count")
        calls = per_run(self.setup_counts.get("phantom.rasterize_calls", 0.0),
                        tr.counts.get("phantom.rasterize_calls", 0.0)
                        - self.setup_counts.get("phantom.rasterize_calls", 0.0))
        distinct = per_run(*self.distinct)
        out["phantom.distinct_ratio"] = (distinct / calls if calls else 0.0, "1")
        out["trace.overhead_s"] = (statistics.median(self.overheads), "s")
        out["round.wall_s"] = (statistics.median(self.round_wall), "s")
        out["round.cpu_s"] = (statistics.median(self.round_cpu), "s")
        out["trace.spans"] = (per_run(self.setup_mark, len(tr.spans) - self.setup_mark), "count")
        return out


def manifest_report(seed: int, prints: dict) -> str:
    """Artifacts whose bytes differ from the manifest; reported, never failed."""
    if not MANIFEST.exists():
        return "no manifest"
    doc = json.loads(MANIFEST.read_text())
    if doc.get("seed") != seed:
        return f"manifest is for seed {doc.get('seed')}, not compared"
    known = doc["artifacts"]
    shared = sorted(set(known) & set(prints))
    moved = [k for k in shared if known[k] != prints[k]]
    for k in moved:
        print(f"manifest: {k} differs: {known[k]} -> {prints[k]}", file=sys.stderr)
    return f"{len(shared)} artifacts compared with the manifest, {len(moved)} differ"


def write_manifest(seed: int) -> int:
    artifacts = {}
    for name in ("reconstruct", "train"):
        work = Path(tempfile.mkdtemp(prefix=f"manifest-{name}-", dir=OUT))
        try:
            run = Run(name, seed, work, trace=False)
            run.workload.set_up()
            run.workload.run_round(0)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run.checks.failures or run.ops.failed:
            print("\n".join(run.checks.failures + run.ops.errors), file=sys.stderr)
            return 1
        artifacts.update(run.workload.fingerprints)
    MANIFEST.write_text(json.dumps({"seed": seed, "artifacts": artifacts}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(artifacts)} artifact fingerprints to {MANIFEST}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vesselmesh" / "__init__.py").is_file():
        print(f"vesselmesh sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.write_manifest:
        return write_manifest(args.seed)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        run = Run(args.workload, args.seed, work, bool(args.trace))
        run.set_up()
        run.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end()
    facts = machine_facts()
    manifest = manifest_report(args.seed, run.workload.fingerprints)
    for line in run.ops.errors + run.checks.failures:
        print(line, file=sys.stderr)
    result = {
        "correct": not run.checks.failures,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rounds": run.total_rounds, "checks": run.checks.count,
              "check_failures": run.checks.failures, "errors": run.ops.errors,
              "manifest": manifest, "machine": facts,
              "operations": [op._asdict() for op in run.ops.records], **result}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        run.tracer.write(OUT / f"trace-{tag}.json")

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# {tag}: {run.total_rounds} rounds, {run.checks.count} checks, "
          f"{len(run.checks.failures)} failed; {manifest}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
