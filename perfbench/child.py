"""One benchmark repetition, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

The runner starts this script once per repetition, so fintopo's caches
(the class_table lru_cache, the module-level pair-facts cache) start cold
every time, as they do for a user of the CLI.  The spec names the source
tree, the workload and where to write the result.  The result records
perf_counter timestamps (CLOCK_MONOTONIC, so they compare with the
runner's) for the moment fintopo is imported and the inputs are ready,
and for the end of the work.  CLI workloads write their output to this
process's stdout; classify-queries captures each query's output and
latency.  With "trace" set, the tracer's per-layer totals go into the
result and its spans into the spans file.
"""

import contextlib
import io
import json
import sys
import time
import traceback

# exit code of a repetition whose command raised instead of returning
CRASHED = 70


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import fintopo.cli as cli

    queries = None
    if spec.get("queries"):
        with open(spec["queries"], encoding="utf-8") as fh:
            queries = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer(spec["run_id"]))
    result = {"ready": time.perf_counter()}
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return 0

    exit_code = 0
    if queries is None:
        try:
            exit_code = cli.main(spec["argv"])
        except Exception:
            traceback.print_exc()
            exit_code = CRASHED
        sys.stdout.flush()
    else:
        latencies, outputs = [], []
        for argv in queries:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:
                    code = CRASHED
                    traceback.print_exc(file=err)
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            outputs.append([code, out.getvalue(), err.getvalue()])
        result["latencies"] = latencies
        result["outputs"] = outputs
    result["done"] = time.perf_counter()

    if tracer is not None:
        tracer.finish()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(spec["spans"])
    _write(spec["result"], result)
    return exit_code


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
