"""Command-line entry point.

Subcommands cover the whole workflow: inspect token graphs, train,
generate, score, and sweep the auxiliary-loss weight. Every run writes
its merged configuration into the output directory so it can be
reproduced later. Exit codes: 0 success, 1 usage error, 2 data error,
3 runtime or numerical error or an interrupt.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import tensor as T
from .config import load_config, save_config
from .data import (DEFAULT_PROMPT, DataError, Vocabulary, atomic_write,
                   build_vocabulary, linearize, parse_dataset)
from .graph import build_graph, edge_counts, graph_to_json
from .metrics import chrf_pp, corpus_bleu
from .model import Seq2SeqModel
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


def _run_paths(run_dir: str) -> dict:
    return {"config": os.path.join(run_dir, "config.json"),
            "vocab": os.path.join(run_dir, "vocab.txt"),
            "checkpoint": os.path.join(run_dir, "model.ckpt"),
            "metrics": os.path.join(run_dir, "metrics.jsonl")}


def _load_run(run_dir: str, overrides: dict):
    paths = _run_paths(run_dir)
    rc = load_config(paths["config"], overrides)
    vocab = Vocabulary.load(paths["vocab"])
    model = Seq2SeqModel(rc.model_config(len(vocab)), seed=rc.seed)
    model.load(paths["checkpoint"])
    return rc, vocab, model


def _decode_overrides(args) -> dict:
    return {"decode_mode": args.mode, "beam_size": args.beam_size,
            "length_penalty": args.length_penalty}


# -- subcommand handlers -------------------------------------------------------


def cmd_build_graph(args) -> int:
    corpus = _load_corpus(args.data)
    vocab = build_vocabulary(corpus)
    totals: dict[str, dict[str, int]] = {}
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, ex in enumerate(corpus):
            inp = linearize(ex, DEFAULT_PROMPT, vocab)
            g = build_graph(inp, bidirectional=not args.unidirectional)
            counts = edge_counts(g)
            record = {"index": i, **json.loads(graph_to_json(g)),
                      "edge_counts": counts}
            fh.write(json.dumps(record) + "\n")
            for direction, per_rel in counts.items():
                slot = totals.setdefault(direction, {})
                for rel, n in per_rel.items():
                    slot[rel] = slot.get(rel, 0) + n
    print(json.dumps({"examples": len(corpus), "edge_counts": totals}))
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {
        "variation": args.variation,
        "gnn_family": args.gnn,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.learning_rate,
        "lambda_gr": args.lambda_gr,
        "seed": args.seed,
    }
    if args.freeze_base:
        overrides["freeze_mode"] = "FREEZE_BASE"
    if args.no_gr_loss:
        overrides["disable_gr_loss"] = True
    if args.unidirectional:
        overrides["unidirectional_edges"] = True
    rc = load_config(args.config, overrides)
    if args.gnn is not None and rc.variation == "BASE":
        raise UsageError("--gnn has no effect with --variation base")
    corpus = _load_corpus(args.data)
    vocab = build_vocabulary(corpus, rc.vocab_min_count, rc.prompt)
    model_cfg = rc.model_config(len(vocab))
    model = Seq2SeqModel(model_cfg, seed=rc.seed)
    items = prepare_items(corpus, vocab, model_cfg, prompt=rc.prompt,
                          bidirectional=not rc.unidirectional_edges)
    val_items = None
    if args.val:
        val_items = prepare_items(_load_corpus(args.val), vocab, model_cfg,
                                  prompt=rc.prompt,
                                  bidirectional=not rc.unidirectional_edges)
    os.makedirs(args.out, exist_ok=True)
    paths = _run_paths(args.out)
    save_config(rc, paths["config"])
    vocab.save(paths["vocab"])
    history = run_training(model, items, rc.train_config(), vocab=vocab,
                           val_items=val_items, log_path=paths["metrics"],
                           checkpoint_path=paths["checkpoint"])
    print(json.dumps({"out": args.out, "epochs_run": len(history),
                      "final": history[-1]}))
    return EXIT_OK


def cmd_generate(args) -> int:
    rc, vocab, model = _load_run(args.run, _decode_overrides(args))
    corpus = _load_corpus(args.data)
    items = prepare_items(corpus, vocab, model.config, prompt=rc.prompt,
                          bidirectional=not rc.unidirectional_edges)
    lines = "".join(
        json.dumps({"input_id": i, "text": vocab.decode(hyp.generated()),
                    "log_prob": hyp.log_prob}) + "\n"
        for i, hyp in enumerate(decode_items(model, items, rc.decode_config())))
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(lines.encode("utf-8"))
    else:
        sys.stdout.write(lines)
    return EXIT_OK


def cmd_eval(args) -> int:
    rc, vocab, model = _load_run(args.run, _decode_overrides(args))
    corpus = _load_corpus(args.data)
    items = prepare_items(corpus, vocab, model.config, prompt=rc.prompt,
                          bidirectional=not rc.unidirectional_edges)
    hyps = decode_items(model, items, rc.decode_config())
    cands = [vocab.decode(hyp.generated()).split() for hyp in hyps]
    refs = [list(item.ref_tokens) for item in items]
    print(json.dumps({"bleu": corpus_bleu(cands, refs),
                      "chrf_pp": chrf_pp(cands, refs),
                      "num_examples": len(items)}))
    return EXIT_OK


def cmd_sweep_lambda(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --values list: {args.values!r}") from None
    if not values:
        raise UsageError("--values must name at least one weight")
    rc = load_config(args.config, {"seed": args.seed})
    for lam in values:  # each weight passes the checks of a lambda_gr value
        load_config(args.config, {"seed": args.seed, "lambda_gr": lam})
    corpus = _load_corpus(args.data)
    val_corpus = _load_corpus(args.val)
    vocab = build_vocabulary(corpus, rc.vocab_min_count, rc.prompt)
    model_cfg = rc.model_config(len(vocab))
    items = prepare_items(corpus, vocab, model_cfg, prompt=rc.prompt,
                          bidirectional=not rc.unidirectional_edges)
    val_items = prepare_items(val_corpus, vocab, model_cfg, prompt=rc.prompt,
                              bidirectional=not rc.unidirectional_edges)
    os.makedirs(args.out, exist_ok=True)
    save_config(rc, os.path.join(args.out, "config.json"))
    results = sweep_lambda(model_cfg, items, val_items, vocab, values,
                           rc.train_config(),
                           tsv_path=os.path.join(args.out, "sweep.tsv"),
                           json_path=os.path.join(args.out, "sweep_plot.json"))
    print(json.dumps({"out": args.out,
                      "results": [{"lambda": lam, "val_bleu": bleu}
                                  for lam, bleu in results]}))
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_decode_flags(p) -> None:
    p.add_argument("--mode", choices=["greedy", "beam"], default=None)
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
    p.add_argument("--gnn", choices=["sage", "gat", "rgcn"], default=None)
    p.add_argument("--freeze-base", action="store_true")
    p.add_argument("--no-gr-loss", action="store_true")
    p.add_argument("--unidirectional", action="store_true")
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (T.NumericsError, T.ShapeError, ArithmeticError,
            RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
