"""Command-line entry point.

Subcommands cover the whole workflow: inspect token graphs, train,
generate, score, and sweep the auxiliary-loss weight. Every run writes
its merged configuration into the output directory so it can be
reproduced later. Exit codes: 0 success, 1 usage error, 2 data error,
3 runtime or numerical error, running out of memory, or an interrupt.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import signal
import sys
import tempfile
from collections import Counter

from . import tensor as T
from .config import RunConfig, load_config, save_config
from .data import (DEFAULT_PROMPT, RESERVED_TOKENS, DataError, Vocabulary,
                   atomic_write, build_vocabulary, linearize, parse_dataset)
from .graph import build_graph, edge_counts, graph_record
from .metrics import chrf_pp, corpus_bleu
from .model import ModelConfig, Seq2SeqModel
from .training import decode_items, prepare_items, sweep_lambda
from .training import train as run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser that uses exit code 1 for bad command lines."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_corpus(path: str):
    corpus = parse_dataset(path)
    if not corpus:
        raise DataError(f"no examples in {path}")
    return corpus


_RUN_FILES = {"config": "config.json", "vocab": "vocab.txt",
             "checkpoint": "model.ckpt", "metrics": "metrics.jsonl"}
_SWEEP_FILES = ("config.json", "sweep.tsv", "sweep_plot.json")


def _run_paths(run_dir: str) -> dict:
    return {key: os.path.join(run_dir, name)
            for key, name in _RUN_FILES.items()}


def _load_run(run_dir: str, overrides: dict):
    paths = _run_paths(run_dir)
    rc = load_config(paths["config"], overrides)
    vocab = Vocabulary.load(paths["vocab"])
    model = Seq2SeqModel(rc.model_config(len(vocab)), seed=rc.seed)
    model.store.load(paths["checkpoint"])
    return rc, vocab, model


@contextlib.contextmanager
def _sigint_held():
    """Hold back Ctrl-C until the block ends, then raise it."""
    caught = []
    try:
        previous = signal.signal(signal.SIGINT, lambda *_: caught.append(1))
    except ValueError:  # handlers can be set from the main thread only
        caught = None
    try:
        yield
    finally:
        if caught is not None:
            signal.signal(signal.SIGINT, signal.SIG_DFL if previous is None
                          else previous)
    if caught:
        raise KeyboardInterrupt


@contextlib.contextmanager
def _run_dir(out: str, names):
    """The directory a command writes its files ``names`` into.

    If ``out`` holds none of them, that is ``out`` itself, so a failed run
    keeps what it wrote so far. Otherwise it is a fresh directory inside
    ``out``: when the block completes, each of its files replaces the file
    of that name in ``out``, with Ctrl-C held back over the swap, and on
    every path it is removed, so a failed run leaves the previous files as
    they were.
    """
    os.makedirs(out, exist_ok=True)
    if not any(os.path.exists(os.path.join(out, n)) for n in names):
        yield out
        return
    stage = tempfile.mkdtemp(prefix=".stage.", suffix=".tmp", dir=out)
    try:
        yield stage
        with _sigint_held():
            for name in sorted(os.listdir(stage)):
                os.replace(os.path.join(stage, name), os.path.join(out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _overrides(args) -> dict:
    """The parsed flags whose names are RunConfig fields."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return {k: v for k, v in vars(args).items() if k in fields}


def _items(corpus, rc: RunConfig, vocab: Vocabulary,
           model_config: ModelConfig) -> list:
    return prepare_items(corpus, vocab, model_config,
                         prompt=rc.prompt,
                         bidirectional=not rc.unidirectional_edges)


# -- subcommand handlers -------------------------------------------------------


def cmd_build_graph(args) -> int:
    corpus = _load_corpus(args.data)
    # a graph reads only the marker ids, so no corpus vocabulary is needed
    vocab = Vocabulary(RESERVED_TOKENS)
    totals: dict[str, Counter] = {}
    with atomic_write(args.out) as fh:
        for i, ex in enumerate(corpus):
            try:
                g = build_graph(linearize(ex, DEFAULT_PROMPT, vocab),
                                bidirectional=not args.unidirectional)
            except DataError as exc:
                raise DataError(f"example {i + 1}: {exc}") from None
            counts = edge_counts(g)
            record = {"index": i, **graph_record(g), "edge_counts": counts}
            fh.write((json.dumps(record) + "\n").encode("utf-8"))
            for direction, per_rel in counts.items():
                totals.setdefault(direction, Counter()).update(per_rel)
    print(json.dumps({"examples": len(corpus), "edge_counts": totals}))
    return EXIT_OK


def cmd_train(args) -> int:
    rc = load_config(args.config, _overrides(args))
    if args.gnn_family is not None and rc.variation == "BASE":
        raise UsageError("--gnn has no effect with --variation base")
    corpus = _load_corpus(args.data)
    vocab = build_vocabulary(corpus, rc.vocab_min_count, rc.prompt)
    model_cfg = rc.model_config(len(vocab))
    model = Seq2SeqModel(model_cfg, seed=rc.seed)
    items = _items(corpus, rc, vocab, model_cfg)
    val_items = (_items(_load_corpus(args.val), rc, vocab, model_cfg)
                 if args.val else None)
    with _run_dir(args.out, _RUN_FILES.values()) as run_dir:
        paths = _run_paths(run_dir)
        save_config(rc, paths["config"])
        vocab.save(paths["vocab"])
        history = run_training(model, items, rc.train_config(), vocab=vocab,
                               val_items=val_items, log_path=paths["metrics"],
                               checkpoint_path=paths["checkpoint"])
    print(json.dumps({"out": args.out, "epochs_run": len(history),
                      "final": history[-1]}))
    return EXIT_OK


def cmd_generate(args) -> int:
    rc, vocab, model = _load_run(args.run, _overrides(args))
    items = _items(_load_corpus(args.data), rc, vocab, model.config)
    lines = "".join(
        json.dumps({"input_id": i, "text": vocab.decode(hyp.generated()),
                    "log_prob": hyp.log_prob, "capped": hyp.capped()}) + "\n"
        for i, hyp in enumerate(decode_items(model, items, rc.decode_config())))
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(lines.encode("utf-8"))
    else:
        sys.stdout.write(lines)
    return EXIT_OK


def cmd_eval(args) -> int:
    rc, vocab, model = _load_run(args.run, _overrides(args))
    items = _items(_load_corpus(args.data), rc, vocab, model.config)
    hyps = decode_items(model, items, rc.decode_config())
    cands = [vocab.decode(hyp.generated()).split() for hyp in hyps]
    refs = [list(item.ref_tokens) for item in items]
    capped = sum(hyp.capped() for hyp in hyps)
    print(json.dumps({"bleu": corpus_bleu(cands, refs),
                      "chrf_pp": chrf_pp(cands, refs),
                      "num_examples": len(items),
                      "capped_frac": capped / len(items)}))
    return EXIT_OK


def cmd_sweep_lambda(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --values list: {args.values!r}") from None
    if not values:
        raise UsageError("--values must name at least one weight")
    rc = load_config(args.config, _overrides(args))
    for lam in values:  # each weight passes the checks of a lambda_gr value
        load_config(args.config, {**_overrides(args), "lambda_gr": lam})
    corpus = _load_corpus(args.data)
    vocab = build_vocabulary(corpus, rc.vocab_min_count, rc.prompt)
    model_cfg = rc.model_config(len(vocab))
    items = _items(corpus, rc, vocab, model_cfg)
    val_items = _items(_load_corpus(args.val), rc, vocab, model_cfg)
    with _run_dir(args.out, _SWEEP_FILES) as run_dir:
        save_config(rc, os.path.join(run_dir, "config.json"))
        results = sweep_lambda(
            model_cfg, items, val_items, vocab, values, rc.train_config(),
            tsv_path=os.path.join(run_dir, "sweep.tsv"),
            json_path=os.path.join(run_dir, "sweep_plot.json"))
    print(json.dumps({"out": args.out,
                      "results": [{"lambda": lam, "val_bleu": bleu}
                                  for lam, bleu in results]}))
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_decode_flags(p) -> None:
    p.add_argument("--mode", dest="decode_mode", choices=["greedy", "beam"],
                   default=None)
    p.add_argument("--beam-size", type=int, default=None)
    p.add_argument("--length-penalty", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="graphtext",
                     description="Graph-to-text generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("build-graph", help="dump token graphs as JSON lines")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unidirectional", action="store_true")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--val", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--variation",
                   choices=["base", "grasame", "var1", "var2"], default=None)
    p.add_argument("--gnn", dest="gnn_family",
                   choices=["sage", "gat", "rgcn"], default=None)
    p.add_argument("--freeze-base", dest="freeze_mode", action="store_const",
                   const="FREEZE_BASE")
    p.add_argument("--no-gr-loss", dest="disable_gr_loss",
                   action="store_const", const=True)
    p.add_argument("--unidirectional", dest="unidirectional_edges",
                   action="store_const", const=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--lambda-gr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode a dataset with a trained run")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score decodes against references")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-lambda",
                       help="train once per loss weight and report val BLEU")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep_lambda)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (T.ShapeError, ArithmeticError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's message names the refused size
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
