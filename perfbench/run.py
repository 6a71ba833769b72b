"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(perfbench/child.py) importing fintopo from src/, so no cache warms across
repetitions.  The runner waits for each child with os.wait4, which gives
the CPU time of the child and every descendant it reaped (pool workers
included) and the largest peak RSS among them.

--trace 0 first starts a few children that only set up, then repeats the
workload until the next repetition would end after S seconds (at least
once), and reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  --trace 1 runs the workload once untraced and once
traced, and reports the per-layer metrics of the traced repetition plus
the tracing overhead.  Either way every output is checked against the
reference; the last line of stdout is the JSON result.  Outputs, spans
and a result record with the environment stay in .bench_build/perfbench/.
"""

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".bench_build" / "perfbench"

# setup-only children started before the timed repetitions, so setup_s is
# a median even when a single repetition fills the run
SETUP_PROBES = 9
# a child still running after this long is killed and its operations fail
CHILD_TIMEOUT_S = 150
# no new repetition starts after this long, whatever --seconds says
MAX_MEASURE_S = 100


class Rep:
    """Timing, resource use and output of one child process."""

    def __init__(self, directory, t_spawn, t_exit, status, usage):
        self.dir = directory
        self.wall = t_exit - t_spawn
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        try:
            self.result = json.loads((directory / "result.json").read_text())
        except (OSError, ValueError):
            # the child died, or was killed, before writing a whole result
            self.result = None
        if self.result is not None:
            self.setup = self.result["ready"] - t_spawn
            if "done" in self.result:
                self.run = self.result["done"] - self.result["ready"]


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(directory, spec):
    """Start child.py on spec in its own session and wait for it to end."""
    directory.mkdir(parents=True)
    spec = {**spec, "src": str(SRC), "result": str(directory / "result.json"),
            "spans": str(directory / "spans.bin")}
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(directory / "stdout.txt", "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        t_spawn = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=directory, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # a child that died early can leave pool workers behind
        _kill_group(proc.pid)
    return Rep(directory, t_spawn, t_exit, status, usage)


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_sha():
    git = ROOT / ".git"
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
    return None


def environment():
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "loadavg_before": os.getloadavg(),
    }


class Workload:
    """One workload's children and the check of their outputs."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.reference = json.loads(REFERENCE.read_text())
        self.spec = {"workload": name}
        self.queries = None
        if name == workloads.CLASSIFY:
            docs = work / "inputs"
            self.spaces, self.queries = workloads.write_classify_inputs(
                seed, docs)
            self.spec["queries"] = str(docs / "queries.json")
        self.operations = workloads.operations(name, self.reference,
                                               self.queries)
        self._expected = None
        self._count = 0

    def run(self, label, **extra):
        self._count += 1
        directory = self.work / f"{self._count:03d}-{label}"
        spec = dict(self.spec, **extra)
        if self.queries is None:
            spec["argv"] = workloads.cli_argv(self.name,
                                              str(directory / "report.json"))
        return spawn(directory, spec)

    def failed(self, rep):
        """Operations of the repetition whose output or exit code is wrong."""
        if rep.result is None or "done" not in rep.result:
            return self.operations
        if self.queries is not None:
            if self._expected is None:
                sys.path.insert(0, str(SRC))
                self._expected = workloads.expected_classify_outputs(
                    self.spaces, self.queries)
            outputs = rep.result["outputs"]
            bad = sum(
                1 for (code, out, _), want in zip(outputs, self._expected)
                if code != 0 or out != want
            )
            return bad + self.operations - len(outputs)
        stdout = (rep.dir / "stdout.txt").read_text(errors="replace")
        report_path = rep.dir / "report.json"
        report = report_path.read_bytes() if report_path.exists() else None
        return workloads.check_cli(self.name, self.reference, rep.exit_code,
                                   stdout, report)


def measure(workload, seconds):
    """End-to-end metrics from untraced repetitions."""
    probes = [workload.run("setup", setup_only=True)
              for _ in range(SETUP_PROBES)]
    reps = []
    start = perf_counter()
    while True:
        reps.append(workload.run("rep"))
        elapsed = perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if elapsed + typical > min(seconds, MAX_MEASURE_S):
            break
    done = [r for r in reps if r.result is not None and "done" in r.result]
    setups = [r.setup for r in probes + reps if r.result is not None]
    if workload.queries is not None:
        latencies = [t for r in done for t in r.result["latencies"]]
    else:
        latencies = [r.wall for r in done]
    latencies_ms = [t * 1000 for t in latencies]
    metrics = {}
    if done and setups:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r.run for r in done),
            "cpu_s": statistics.median(r.cpu for r in done),
            "peak_rss_mb": statistics.median(r.rss_mb for r in done),
            "query_p50_ms": percentile(latencies_ms, 50),
            "query_p90_ms": percentile(latencies_ms, 90),
        }
    samples = {
        "setup_s": setups,
        "run_s": [r.run for r in done],
        "cpu_s": [r.cpu for r in done],
        "peak_rss_mb": [r.rss_mb for r in done],
        "queries": len(latencies),
    }
    return metrics, reps, samples


def trace(workload):
    """Per-layer metrics from one traced repetition, and its overhead."""
    base = workload.run("untraced")
    traced = workload.run("traced", trace=True,
                          run_id=f"{workload.name}-seed{workload.seed}")
    metrics = {}
    if traced.result is not None and "layers" in traced.result:
        metrics = dict(traced.result["layers"])
        if base.result is not None and "done" in base.result:
            metrics["trace.overhead_s"] = traced.run - base.run
    return metrics, [base, traced], {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fintopo" / "__init__.py").is_file():
        print(f"error: no fintopo source tree under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    env = environment()
    workload = Workload(args.workload, args.seed, work)
    if args.trace:
        metrics, reps, samples = trace(workload)
    else:
        metrics, reps, samples = measure(workload, args.seconds)
    env["loadavg_after"] = os.getloadavg()

    attempted = workload.operations * len(reps)
    failed = sum(workload.failed(r) for r in reps)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    out = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "repetitions": len(reps), "environment": env,
              "samples": samples, "all_metrics": metrics, "result": out}
    (work / "record.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(reps)} repetition(s), trace {args.trace}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<42} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)")
    if missing:
        print(f"  not measured: {', '.join(missing)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
