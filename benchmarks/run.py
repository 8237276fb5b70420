"""Benchmark of graphtext training and decoding, end to end and per layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-small-graphs --seed 1 \\
        --seconds 35 --trace 0

``--workload all`` (the default) runs every workload, each in its own
process so that peak memory is per workload. With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it wraps the
program's public functions and reports per-layer times, counts, the
tracing overhead and the unattributed share of a step. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Reports, spans and machine
details are also written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-small-graphs", "train-large-graphs", "decode-beam-10k")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, if one is loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(nproc: int, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "seed": seed}


def p90(values: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(spec, result) -> tuple[dict, list[tuple]]:
    """(metrics for the JSON line, report rows of name, value, unit, note)."""
    loop = result.loop
    n = len(loop.step_s)
    setup_s = statistics.median(loop.setup_s)
    step_ms = 1000 * statistics.median(loop.step_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = loop.fastest_rate()
    passes = (f"{n} passes over {len(loop.fastest)} {{}}, each counted at "
              f"its fastest pass")
    metrics = {
        "setup_s": (setup_s, "s"),
        "examples_per_s": (fastest, "examples/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "quality_nats": (result.quality, "nats"),
    }
    setup_note = f"median of {len(loop.setup_s)} set-ups"
    rows = [("setup_s", setup_s, "s", setup_note)]
    if spec.decode_count:
        tokens = result.notes["returned_tokens"]
        rows += [
            ("decode_examples_per_s", fastest, "examples/s",
             passes.format("examples")),
            ("decode_tokens_per_s", tokens / loop.busy_s, "tokens/s",
             f"{tokens} tokens, {loop.examples} examples, scoring included"),
            ("decode_example_ms.p50", step_ms, "ms", f"n={n}"),
            ("decode_score_mean", result.notes["decode_score_mean"],
             "nats/token", f"first {spec.quality_examples} examples"),
            ("bleu", result.notes["bleu"], "BLEU", "random-init model"),
            ("chrf_pp", result.notes["chrf"], "chrF++", "random-init model"),
        ]
    else:
        rows += [
            ("train_examples_per_s", fastest, "examples/s",
             passes.format("batches")),
            ("train_examples_per_s.mean", loop.examples / loop.busy_s,
             "examples/s", f"{loop.examples} examples in {n} steps"),
            ("train_step_ms.p50", step_ms, "ms", f"n={n}"),
        ]
        tail = p90(loop.step_s)
        if tail is not None:
            rows.append(("train_step_ms.p90", 1000 * tail, "ms", f"n={n}"))
        rows.append(("train_loss_end", result.quality, "nats",
                     f"probe batch after {spec.probe_step} steps"))
    rows += [("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
             ("failed_frac", result.failed / result.attempted, "frac",
              f"{result.failed}/{result.attempted}")]
    return metrics, rows


def per_layer(result, tracer, wanted: list[dict]) -> tuple[dict, dict]:
    """(the ``wanted`` metrics for the JSON line, every per-layer figure
    and span count for the report)."""
    import spans
    s = spans.Summary(tracer)
    names = tracer.names
    counts = tracer.counts
    steps = s.spans({"step"})
    setups = s.spans({"setup"})
    decodes = s.spans({"step", "validate", "score"})
    examples = result.traced.examples
    prepared = sum(names[i] == "graph.build_graph" for i in setups)
    decoded = counts["decoding.results"]
    tokens = counts["decoding.returned_tokens"]

    def per_step_ms(name):
        return 1000 * s.total(steps, name) / examples

    def per_setup_ms(name):
        return 1000 * s.total(setups, name) / prepared

    def per_decode_ms(name):
        return 1000 * s.total(decodes, name) / decoded

    search = (s.total(decodes, "decoding.beam_search")
              - s.below(decodes, "decoding.beam_search", "model"))
    roots = s.roots("step")
    untraced = statistics.median(result.loop.step_s)
    traced = statistics.median(result.traced.step_s)
    layers = s.layer_times(steps)
    out = {
        "tensor.ops_per_example": (
            sum(spans.tape_op(names[i]) for i in steps) / examples, "ops"),
        "tensor.backward_ms": (per_step_ms("tensor.backward"), "ms"),
        "tensor.adam_ms": (per_step_ms("tensor.ParameterStore.adam_step"),
                           "ms"),
        "model.attention_ms": (per_step_ms("model.multi_head_attention"),
                               "ms"),
        "model.encode_ms": (per_step_ms("model.Seq2SeqModel.encode"), "ms"),
        "model.decode_ms": (per_step_ms("model.Seq2SeqModel.decode"), "ms"),
        "model.reconstruct_ms": (
            per_step_ms("model.Seq2SeqModel.reconstruct_relations"), "ms"),
        "gnn.forward_ms": (per_step_ms("gnn.GnnLayer.forward"), "ms"),
        "training.loss_ms": (per_step_ms("training.compute_batch_loss"), "ms"),
        "gnn.tensors_ms": (per_setup_ms("gnn.graph_tensors"), "ms"),
        "gnn.tensor_bytes_per_example": (
            counts["gnn.tensor_bytes"] / counts["gnn.tensor_sets"], "bytes"),
        "graph.build_ms": (per_setup_ms("graph.build_graph"), "ms"),
        "graph.edges_per_example": (counts["graph.edges"] / prepared, "edges"),
        "data.vocab_ms": (per_setup_ms("data.build_vocabulary"), "ms"),
        "data.linearize_ms": (per_setup_ms("data.linearize"), "ms"),
        "model.decode_positions_per_token": (
            counts["model.decode_positions"] / tokens, "ratio"),
        "decoding.search_self_ms": (1000 * search / decoded, "ms"),
        "decoding.candidates_per_token": (
            counts["decoding.candidates"] / tokens, "ratio"),
        "decoding.capped_frac": (counts["decoding.capped"] / decoded, "frac"),
        "metrics.bleu_ms": (per_decode_ms("metrics.corpus_bleu"), "ms"),
        "metrics.chrf_ms": (per_decode_ms("metrics.chrf_pp"), "ms"),
        "trace.overhead_frac": (traced / untraced - 1, "frac"),
        "trace.unattributed_frac": (
            sum(s.self_time[i] for i in roots)
            / sum(s.dur[i] for i in roots), "frac"),
    }
    for layer, (total, own) in layers.items():
        out[f"{layer}.total_ms"] = (1000 * total / examples, "ms")
        out[f"{layer}.self_ms"] = (1000 * own / examples, "ms")
    for name, count in [("traced_steps", len(result.traced.step_s)),
                        ("traced_examples", examples),
                        ("decoded_examples", decoded),
                        ("prepared_examples", prepared),
                        ("spans", len(names))]:
        out[name] = (count, "count")
    return {m["name"]: out[m["name"]] for m in wanted}, out


def run_one(args, nproc: int) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import graphtext
    except ImportError as exc:
        print(f"cannot import graphtext from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(graphtext.__file__).startswith(ROOT + os.sep):
        print(f"graphtext imported from outside the checkout: "
              f"{graphtext.__file__}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.SPECS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    why = next(w["why"] for w in bench["workloads"]
               if w["name"] == args.workload)
    info = machine(nproc, args.seed)
    result, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace),
                                   workloads.load_reference())
    if tracer is None:
        metrics, rows = end_to_end(spec, result)
        report = {name: {"value": v, "unit": u, "note": note}
                  for name, v, u, note in rows}
    else:
        metrics, table = per_layer(result, tracer, bench["per_layer"])
        report = {name: {"value": v, "unit": u} for name, (v, u) in
                  table.items()}
    correct = result.failed == 0
    record = {"workload": args.workload, "why": why, "machine": info,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": result.attempted,
              "failed": result.failed,
              "quality_reference": result.notes.get("reference"),
              "report": report, "setup_s": result.loop.setup_s,
              "step_s": result.loop.step_s,
              "traced_step_s": result.traced.step_s}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    print(f"# {args.workload}: {why}")
    print("# machine " + json.dumps(info))
    print(f"# quality reference: {result.notes.get('reference')}")
    for name, entry in report.items():
        note = entry.get("note")
        print(f"{name:34s} {entry['value']:14.6g} {entry['unit']:10s}"
              + (f" {note}" if note else ""))
    print(json.dumps({
        "correct": correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a child process; the last line merges their JSON."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            merged["metrics"][f"{name}:{k}"] = v
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
