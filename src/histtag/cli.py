"""Command-line interface exposing the pipeline as subcommands.

One binary, subcommand style.  Orchestrated commands read a YAML run
config; individual flags override config values.  The keys and defaults of
the ``lm.<direction>``, ``tagger`` and ``smlm`` sections are the fields of
CharLmConfig, TaggerConfig and SmlmConfig, their annotations are the types
the values must have, and the embedding component kinds and their keys are
those of ``histtag.embed``; this module only orchestrates.  _SCHEMA types
every key, and a value of the wrong type is a config error.

Every command that produces file artifacts also writes a run manifest
beside them: the fully resolved config, its hash, the seeds used, library
versions, and a sha256 per input and output file.  Manifests carry no
timestamps, so a repeated run over identical inputs reproduces them byte
for byte.  The configs embedded by ``smlm``, ``lm train`` and ``ner train``
re-execute the run when passed back as ``--config``; ``lm ppl``, ``ner
predict`` and ``eval`` take no config, and theirs records the flags they
were given, as ``vocab``'s records the files it read and their columns.
Every file is written whole or not at all (see
``serialization.atomic_open``).  ``lm train``'s directions and ``ner
train``'s runs are ``parallel.map_jobs`` jobs, spread over the CPUs the
process may use; each job writes its own files, and this module prints
and writes the manifest from their results, so neither depends on how
many CPUs there are.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
The only environment variable is HISTTAG_LOG, which sets the logging
level (default WARNING).
"""

import argparse
import itertools
import json
import logging
import os
import platform
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .charlm import CharLmConfig, corpus_perplexity, load_lm, save_lm, train_lm
from .corpus import (
    CharVocabulary,
    TagScheme,
    extract_char_vocab,
    read_conll,
    read_plain,
)
from .embed import component_class, embedder_factory
from .errors import ConfigError, HisttagError, StructureMismatchError, check_type
from .evaluation import (
    average_runs,
    evaluate,
    format_report,
    read_conll_predictions,
    write_conll_predictions,
)
from .parallel import map_jobs
from .serialization import atomic_open, file_sha256
from .smlm import SmlmConfig, select_mask_char, smlm_transform
from .tagger import TaggerConfig, load_ner, predict, save_ner, train_ner

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# run config


def _fields(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


# the keys ``lm train`` takes for each direction; it sets the direction itself
_LM_DIRECTION = {k: t for k, t in _fields(CharLmConfig).items() if k != "direction"}
# every key of the run config and the type of its value; a nested dict is
# a section, and ``list`` marks the list of embedding components
_SCHEMA = {
    "data": {"train": str, "dev": str, "test": str, "lm_corpus": str,
             "token_column": int, "tag_column": int, "scheme": str},
    "vocab": {"path": str},
    "smlm": {**_fields(SmlmConfig), "output": str, "stats": str},
    "lm": {"corpus": str, "seed": int, "output_dir": str,
           "forward": _LM_DIRECTION, "backward": _LM_DIRECTION},
    "embeddings": list,
    "tagger": _fields(TaggerConfig),
    "eval": {"runs": int, "output_dir": str},
}


def _component_schema(comp, where: str) -> dict:
    """The keys of embedding entry ``comp`` and their types, by its kind."""
    if not isinstance(comp, dict) or "kind" not in comp:
        raise ConfigError(f"{where} needs a 'kind' key")
    try:
        cls = component_class(comp["kind"])
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return {"kind": str, **dict.fromkeys(cls.files, str), **cls.options}


def _checked(value, schema, where: str):
    """``value`` checked against ``schema``, with its null entries dropped;
    a scalar by ``check_type``."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {where!r} must be a mapping")
        unknown = sorted(map(str, set(value) - set(schema)))
        if unknown:
            raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
        prefix = "" if where == "run config" else f"{where}."
        return {k: _checked(v, schema[k], prefix + k)
                for k, v in value.items() if v is not None}
    if schema is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a list of components: "
                              "need at least one embedding component")
        return [_checked(comp, _component_schema(comp, f"{where}[{i}]"), f"{where}[{i}]")
                for i, comp in enumerate(value)]
    return check_type(value, schema, where)


def validate_config(config: dict) -> dict:
    """Reject unknown sections and keys anywhere in the document, and
    values of the wrong type; returns the config with its null values
    dropped, so that they read as absent."""
    return _checked(config, _SCHEMA, "run config")


def load_run_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: run config must be a mapping")
    return validate_config(loaded)


def _maybe_config(args) -> dict:
    return load_run_config(args.config) if getattr(args, "config", None) else {}


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required")
    return value


def _require_file(value, what: str) -> Path:
    path = Path(_require(value, what))
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _scheme_of(name: str) -> TagScheme:
    try:
        return TagScheme.from_string(name)
    except Exception:
        raise ConfigError(f"unknown tag scheme {name!r}") from None


def _pick(flag_value, section: dict, key: str, default=None):
    """Flag beats config beats default."""
    if flag_value is not None:
        return flag_value
    return section.get(key, default)


def _columns(args, data: dict) -> tuple[int, int, TagScheme]:
    """Token column, tag column and tag scheme of CoNLL inputs; ``ner
    train`` has no column flags and reads them from the config alone."""
    return (_pick(getattr(args, "token_column", None), data, "token_column", 0),
            _pick(getattr(args, "tag_column", None), data, "tag_column", 1),
            _scheme_of(_pick(getattr(args, "scheme", None), data, "scheme", "iob2")))


def _config_from(cls, section: dict, where: str, **flags):
    """``cls`` from the section's keys that are its fields, overridden by
    the flags that were given; its defaults fill the rest."""
    names = _fields(cls)
    values = {k: v for k, v in section.items() if k in names}
    values.update((k, v) for k, v in flags.items() if v is not None)
    try:
        return cls(**values)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# manifests


def _config_sha256(config: dict) -> str:
    import hashlib

    canonical = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _versions() -> dict:
    return {
        "histtag": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


def _hash_entry(path) -> dict:
    path = Path(path)
    return {"path": str(path), "sha256": file_sha256(path)}


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, body) -> None:
    _write_text(path, json.dumps(body, sort_keys=True, indent=2,
                                 ensure_ascii=False) + "\n")


def write_manifest(path, command: str, config: dict, seeds: dict,
                   inputs: dict, artifacts: dict) -> None:
    """Deterministic run record: no timestamps, sorted keys."""
    body = {
        "command": command,
        "config": config,
        "config_sha256": _config_sha256(config),
        "seeds": seeds,
        "versions": _versions(),
        "inputs": {name: _hash_entry(p) for name, p in inputs.items()},
        "artifacts": {name: _hash_entry(p) for name, p in artifacts.items()},
    }
    _write_json(path, body)


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_vocab_source(path) -> CharVocabulary:
    """Accept either a vocab file, known by the header line that
    ``CharVocabulary.to_path`` writes, or a plain-text dataset to extract
    from."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("# histtag vocab"):
        return CharVocabulary.from_path(path)
    return extract_char_vocab(read_plain(path))


# ---------------------------------------------------------------------------
# vocab


def cmd_vocab(args) -> int:
    config = _maybe_config(args)
    data = config.get("data", {})
    token_column, tag_column, scheme = _columns(args, data)

    plain_paths = list(args.plain or [])
    conll_paths = list(args.conll or [])
    if not plain_paths and not conll_paths:
        if "lm_corpus" in data:
            plain_paths.append(data["lm_corpus"])
        conll_paths.extend(data[k] for k in ("train", "dev", "test")
                           if k in data)
    if not plain_paths and not conll_paths:
        raise ConfigError("no input files: pass --plain/--conll or a config "
                          "with a data section")
    output = Path(_require(
        args.output or config.get("vocab", {}).get("path"), "--output"))

    inputs, sources = {}, []
    for i, p in enumerate(plain_paths):
        path = inputs[f"plain[{i}]"] = _require_file(p, "input")
        sources.append(read_plain(path))
    for i, p in enumerate(conll_paths):
        path = inputs[f"conll[{i}]"] = _require_file(p, "input")
        sources.append(read_conll(path, token_column, tag_column, scheme,
                                  split="train"))
    vocab = extract_char_vocab(*sources)
    output.parent.mkdir(parents=True, exist_ok=True)
    vocab.to_path(output)
    write_manifest(
        Path(f"{output}.manifest.json"), "vocab",
        {"data": {"plain": [str(p) for p in plain_paths],
                  "conll": [str(p) for p in conll_paths],
                  "token_column": token_column, "tag_column": tag_column,
                  "scheme": scheme.value},
         "vocab": {"path": str(output)}},
        {}, inputs, {"vocab": output})
    print(f"{len(vocab)} characters from {len(sources)} source(s) -> {output}")
    return 0


# ---------------------------------------------------------------------------
# smlm


def cmd_smlm(args) -> int:
    config = _maybe_config(args)
    data = config.get("data", {})
    section = config.get("smlm", {})

    input_path = _require_file(
        args.input if args.input is not None else data.get("lm_corpus"),
        "--input")
    vocab_source = _require_file(
        args.vocab if args.vocab is not None else
        config.get("vocab", {}).get("path"), "--vocab")
    output = Path(_require(_pick(args.output, section, "output"), "--output"))
    stats_path = _pick(args.stats, section, "stats")

    vocab = _load_vocab_source(vocab_source)
    mask_char = _pick(args.mask_char, section, "mask_char")
    if mask_char is None:
        mask_char = select_mask_char(vocab)
    smlm_config = _config_from(SmlmConfig, section, "smlm", p_keep=args.p_keep,
                               seed=args.seed, mask_char=mask_char)

    corrupted, stats = smlm_transform(read_plain(input_path), vocab,
                                      smlm_config)
    # raises EmptyCorpusError on zero characters, before anything is written
    stats_text = stats.to_text()
    _write_text(output, "".join(line + "\n" for line in corrupted))
    artifacts = {"output": output}
    if stats_path is not None:
        stats_path = Path(stats_path)
        _write_text(stats_path, stats_text)
        artifacts["stats"] = stats_path

    resolved = {
        "data": {"lm_corpus": str(input_path)},
        "vocab": {"path": str(vocab_source)},
        "smlm": {**asdict(smlm_config), "output": str(output),
                 **({"stats": str(stats_path)} if stats_path is not None else {})},
    }
    write_manifest(Path(f"{output}.manifest.json"), "smlm", resolved,
                   {"smlm": smlm_config.seed},
                   {"input": input_path, "vocab": vocab_source}, artifacts)
    print(f"corrupted {stats.total_chars} characters "
          f"(kept {stats.kept_rate:.4f}, masked {stats.masked_rate:.4f}, "
          f"replaced {stats.replaced_rate:.4f}) -> {output}")
    return 0


# ---------------------------------------------------------------------------
# lm train / lm ppl


def cmd_lm_train(args) -> int:
    config = _maybe_config(args)
    data = config.get("data", {})
    section = config.get("lm", {})

    corpus_path = _require_file(
        args.corpus if args.corpus is not None else
        section.get("corpus", data.get("lm_corpus")), "LM corpus")
    out_dir = Path(_require(_pick(args.output_dir, section, "output_dir"),
                            "--output-dir"))
    seed = _pick(args.seed, section, "seed", 0)
    directions = (("forward", "backward") if args.direction == "both"
                  else (args.direction,))

    # every direction's config is checked before any LM trains
    lm_configs = [_config_from(CharLmConfig, section.get(direction, {}), f"lm.{direction}",
                               direction=direction, epochs=args.epochs,
                               learning_rate=args.learning_rate)
                  for direction in directions]
    corpus = read_plain(corpus_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    def train_direction(lm_config: CharLmConfig):
        model, log = train_lm(corpus, lm_config, seed)
        save_lm(model, out_dir / f"{lm_config.direction}.bin")
        _write_json(out_dir / f"{lm_config.direction}_log.json", asdict(log))
        return log

    resolved_lm = {"corpus": str(corpus_path), "seed": seed,
                   "output_dir": str(out_dir)}
    artifacts = {}
    for lm_config, log in zip(lm_configs, map_jobs(train_direction, lm_configs)):
        direction = lm_config.direction
        model_path = out_dir / f"{direction}.bin"
        artifacts[f"{direction}.bin"] = model_path
        artifacts[f"{direction}_log.json"] = out_dir / f"{direction}_log.json"
        resolved_lm[direction] = {k: v for k, v in asdict(lm_config).items()
                                  if k != "direction"}
        final = log.epochs[-1].test_perplexity if log.epochs else float("nan")
        print(f"{direction}: test perplexity "
              f"{log.initial_test_perplexity:.3f} -> {final:.3f} "
              f"over {len(log.epochs)} epoch(s), saved {model_path}")

    write_manifest(out_dir / "manifest.json", "lm train",
                   {"lm": resolved_lm}, {"lm": seed}, {"corpus": corpus_path},
                   artifacts)
    return 0


def cmd_lm_ppl(args) -> int:
    model = load_lm(_require_file(args.model, "--model"))
    input_path = _require_file(args.input, "--input")
    if args.format == "conll":
        corpus = read_conll(input_path, *_columns(args, {}), split="test")
    else:
        corpus = read_plain(input_path)
    value = corpus_perplexity(model, corpus)
    line = f"perplexity {value:.6f}"
    print(line)
    if args.output is not None:
        output = Path(args.output)
        _write_text(output, line + "\n")
        write_manifest(
            Path(f"{output}.manifest.json"), "lm ppl",
            {"lm": {"model": str(args.model)},
             "data": {"input": str(input_path), "format": args.format}},
            {}, {"model": Path(args.model), "input": input_path},
            {"report": output})
    return 0


# ---------------------------------------------------------------------------
# ner train / ner predict


def cmd_ner_train(args) -> int:
    config = load_run_config(args.config)
    data = config.get("data", {})
    eval_section = config.get("eval", {})

    token_column, tag_column, scheme = _columns(args, data)
    train_path = _require_file(data.get("train"), "data.train")
    dev_path = _require_file(data.get("dev"), "data.dev")
    test_path = (_require_file(data.get("test"), "data.test")
                 if data.get("test") else None)
    inputs = {"train": train_path, "dev": dev_path}
    if test_path is not None:
        inputs["test"] = test_path

    components = config.get("embeddings", [{"kind": "char_features"}])
    for i, comp in enumerate(components):
        for key in component_class(comp["kind"]).files:
            name = f"embeddings[{i}].{key}"
            inputs[name] = _require_file(comp.get(key), name)
    vocab_path = config.get("vocab", {}).get("path")
    if vocab_path is not None:
        vocab_path = inputs["vocab"] = _require_file(vocab_path, "vocab.path")

    runs = _pick(args.runs, eval_section, "runs", 3)
    if runs < 1:
        raise ConfigError(f"eval.runs must be at least 1, got {runs}")
    out_dir = Path(_require(_pick(args.output_dir, eval_section,
                                  "output_dir"), "eval.output_dir"))
    base_config = _config_from(
        TaggerConfig, config.get("tagger", {}), "tagger", seed=args.seed,
        max_epochs=args.max_epochs, learning_rate=args.learning_rate)
    base_seed = base_config.seed

    train = read_conll(train_path, token_column, tag_column, scheme, split="train")
    dev = read_conll(dev_path, token_column, tag_column, scheme, split="dev")
    test = None
    if test_path is not None:
        test = read_conll(test_path, token_column, tag_column, scheme, split="test")

    if vocab_path is not None:
        vocab = CharVocabulary.from_path(vocab_path)
    else:
        vocab = extract_char_vocab(train, dev)
    eval_corpus, eval_name = (test, "test") if test is not None else (dev, "dev")
    # every run's stack shares the frozen blocks of all three corpora
    build_stack = embedder_factory(components, vocab,
                                   itertools.chain(train, dev, eval_corpus))

    def train_run(run: int):
        """Train, save, predict and score run ``run``; its report and log."""
        run_seed = base_seed + run
        # distinct seed material keeps encoder init clear of the training
        # stream, which also starts at run_seed
        embedder = build_stack(np.random.default_rng([run_seed, 1]))
        model, log = train_ner(train, dev, replace(base_config, seed=run_seed),
                               embedder)
        run_dir = out_dir / f"run{run}"
        run_dir.mkdir(parents=True, exist_ok=True)
        save_ner(model, run_dir / "model.bin")
        predicted = predict(model, eval_corpus)
        write_conll_predictions(eval_corpus, predicted, run_dir / "predictions.conll")
        report = evaluate(eval_corpus, predicted)
        _write_text(run_dir / "report.txt", format_report(report) + "\n")
        _write_json(run_dir / "report.json", {"evaluated_on": eval_name, **report.to_dict()})
        _write_json(run_dir / "training_log.json", asdict(log))
        return report, log

    artifacts = {}
    reports = []
    for run, (report, log) in enumerate(map_jobs(train_run, range(runs))):
        run_seed = base_seed + run
        for name in ("model.bin", "predictions.conll", "report.txt", "report.json",
                     "training_log.json"):
            artifacts[f"run{run}/{name}"] = out_dir / f"run{run}" / name
        reports.append(report)
        if log.status == "no_improvement":
            logger.warning("run %d: dev F1 never rose above 0 in %d epochs; "
                           "the model keeps its initial parameters",
                           run, len(log.records))
        print(f"run {run}: seed {run_seed}, {eval_name} F1 {report.f1:.4f} "
              f"({log.status}, best epoch {log.best_epoch})")

    summary = average_runs(reports)
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, {"evaluated_on": eval_name, **summary.to_dict()})
    artifacts["summary.json"] = summary_path

    resolved = {
        "data": {"train": str(train_path), "dev": str(dev_path),
                 **({"test": str(test_path)} if test_path else {}),
                 "token_column": token_column, "tag_column": tag_column,
                 "scheme": scheme.value},
        **({"vocab": {"path": str(vocab_path)}} if vocab_path else {}),
        "embeddings": components,
        "tagger": asdict(base_config),
        "eval": {"runs": runs, "output_dir": str(out_dir)},
    }
    write_manifest(out_dir / "manifest.json", "ner train", resolved,
                   {"base_seed": base_seed,
                    "runs": [base_seed + i for i in range(runs)]},
                   inputs, artifacts)
    print(f"mean {eval_name} F1 over {runs} run(s): {summary.mean_f1:.4f}")
    return 0


def cmd_ner_predict(args) -> int:
    model = load_ner(_require_file(args.model, "--model"))
    input_path = _require_file(args.input, "--input")
    output = Path(_require(args.output, "--output"))
    token_column, tag_column, scheme = _columns(args, {})

    corpus = read_conll(input_path, token_column, tag_column, scheme, split="test")
    predicted = predict(model, corpus)
    output.parent.mkdir(parents=True, exist_ok=True)
    write_conll_predictions(corpus, predicted, output)
    write_manifest(
        Path(f"{output}.manifest.json"), "ner predict",
        {"data": {"input": str(input_path), "token_column": token_column,
                  "tag_column": tag_column, "scheme": scheme.value},
         "model": str(args.model), "output": str(output)},
        {}, {"model": Path(args.model), "input": input_path},
        {"predictions": output})
    print(f"wrote predictions for {len(corpus)} sentence(s) -> {output}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    token_column, tag_column, scheme = _columns(args, {})
    if args.predictions is not None:
        if args.gold is not None or args.pred is not None:
            raise ConfigError(
                "--predictions cannot be combined with --gold/--pred")
        predictions_path = _require_file(args.predictions, "--predictions")
        gold, predicted = read_conll_predictions(predictions_path, scheme)
        inputs = {"predictions": predictions_path}
        data_cfg = {"predictions": str(predictions_path)}
    else:
        gold_path = _require_file(args.gold, "--gold")
        pred_path = _require_file(args.pred, "--pred")
        gold = read_conll(gold_path, token_column, tag_column, scheme, split="test")
        pred_corpus = read_conll(pred_path, token_column, tag_column, scheme, split="test")
        for i, (g, p) in enumerate(zip(gold, pred_corpus)):
            if g.texts() != p.texts():
                raise StructureMismatchError(
                    f"sentence {i} has other tokens in {pred_path} than in {gold_path}",
                    sentence_index=i)
        predicted = [s.gold_tags() for s in pred_corpus]
        inputs = {"gold": gold_path, "pred": pred_path}
        data_cfg = {"gold": str(gold_path), "pred": str(pred_path),
                    "token_column": token_column, "tag_column": tag_column}

    report = evaluate(gold, predicted)
    print(format_report(report))
    if args.output is not None:
        output = Path(args.output)
        _write_json(output, report.to_dict())
        write_manifest(
            Path(f"{output}.manifest.json"), "eval",
            {"data": {**data_cfg, "scheme": scheme.value}},
            {}, inputs, {"report": output})
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flag(parser) -> None:
    parser.add_argument("--config", metavar="YAML",
                        help="run config file; explicit flags override it")


def _add_column_flags(parser) -> None:
    parser.add_argument("--token-column", type=int, default=None,
                        metavar="N", help="CoNLL column holding tokens")
    parser.add_argument("--tag-column", type=int, default=None,
                        metavar="N", help="CoNLL column holding tags")
    parser.add_argument("--scheme", choices=("iob2", "iobes"), default=None,
                        help="tag scheme of the input files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histtag",
        description="corpus corruption, character LM pre-training, and "
                    "Bi-LSTM-CRF tagging for noisy historic text")
    parser.add_argument("--version", action="version",
                        version=f"histtag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="extract a character vocabulary")
    _add_config_flag(p)
    p.add_argument("--plain", action="append", metavar="FILE",
                   help="plain-text input (repeatable)")
    p.add_argument("--conll", action="append", metavar="FILE",
                   help="CoNLL input (repeatable)")
    _add_column_flags(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("smlm", help="corrupt a corpus into a synthetic "
                                    "noisy version")
    _add_config_flag(p)
    p.add_argument("--input", metavar="FILE")
    p.add_argument("--vocab", metavar="FILE",
                   help="vocab file, or a plain-text dataset to extract one from")
    p.add_argument("--output", metavar="FILE")
    p.add_argument("--stats", metavar="FILE")
    p.add_argument("--p-keep", type=float, default=None, metavar="P")
    p.add_argument("--seed", type=int, default=None, metavar="N")
    p.add_argument("--mask-char", default=None, metavar="C")
    p.set_defaults(func=cmd_smlm)

    lm = sub.add_parser("lm", help="character language models")
    lm_sub = lm.add_subparsers(dest="subcommand", required=True)

    p = lm_sub.add_parser("train", help="train forward/backward character LMs")
    _add_config_flag(p)
    p.add_argument("--corpus", metavar="FILE")
    p.add_argument("--direction", choices=("both", "forward", "backward"),
                   default="both")
    p.add_argument("--seed", type=int, default=None, metavar="N")
    p.add_argument("--epochs", type=int, default=None, metavar="N")
    p.add_argument("--learning-rate", type=float, default=None, metavar="X")
    p.add_argument("--output-dir", metavar="DIR")
    p.set_defaults(func=cmd_lm_train)

    p = lm_sub.add_parser("ppl", help="score a corpus with a trained LM")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--input", metavar="FILE", required=True)
    p.add_argument("--format", choices=("plain", "conll"), default="plain")
    _add_column_flags(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_lm_ppl)

    ner = sub.add_parser("ner", help="named-entity tagger")
    ner_sub = ner.add_subparsers(dest="subcommand", required=True)

    p = ner_sub.add_parser("train", help="train tagger(s) from a run config")
    p.add_argument("--config", metavar="YAML", required=True,
                   help="run config file; explicit flags override it")
    p.add_argument("--runs", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="N")
    p.add_argument("--max-epochs", type=int, default=None, metavar="N")
    p.add_argument("--learning-rate", type=float, default=None, metavar="X")
    p.add_argument("--output-dir", metavar="DIR")
    p.set_defaults(func=cmd_ner_train)

    p = ner_sub.add_parser("predict", help="tag a CoNLL file with a trained model")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--input", metavar="FILE", required=True)
    p.add_argument("--output", metavar="FILE", required=True)
    _add_column_flags(p)
    p.set_defaults(func=cmd_ner_predict)

    p = sub.add_parser("eval", help="span F1 over gold/predicted tags")
    p.add_argument("--predictions", metavar="FILE",
                   help="three-column 'token gold pred' file")
    p.add_argument("--gold", metavar="FILE")
    p.add_argument("--pred", metavar="FILE")
    _add_column_flags(p)
    p.add_argument("--output", metavar="FILE",
                   help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("HISTTAG_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HisttagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
