#!/usr/bin/env python3
"""histtag benchmark: seeded, closed-loop CLI workloads in one process.

Run from the root of a histtag checkout::

    python3 bench/run.py --workload lm_pretrain --seed 1 --seconds 25 --trace 0

Each workload generates its inputs from ``--seed`` (see ``inputs.py``),
builds what it needs (the set-up, repeated and timed), then repeats its
timed sequence of ``histtag.cli.main`` commands for ``--seconds`` seconds,
one command after the other.  Every command's exit code, the artifacts it
writes and their bytes across repeats are checked, along with independent
checks of the outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced repeats with repeats whose layers are wrapped by ``tracing.Tracer``
and prints per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every command and check passed.
The full record of a run (environment, input statistics, every repeat's
timings) goes to ``.bench_work/results/`` in the checkout.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
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

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# the character-LM settings of the ROADMAP baseline, except the learning
# rate: at the default 20.0 one epoch on these corpora often diverges (test
# perplexity from 12 to 1e30 across seeds), which no bound could follow
LM_DIRECTION = {"char_embed_dim": 16, "hidden_size": 64, "sequence_length": 50,
                "mini_batch": 8, "epochs": 1, "learning_rate": 5.0, "dropout": 0.0}
# a rate and batch size at which the tagger converges within a few epochs,
# so test F1 stays steady across seeds
TAGGER = {"lstm_hidden": 128, "learning_rate": 0.5, "mini_batch": 4,
          "patience": 3, "seed": 11}
CHAR_FEATURES = {"kind": "char_features", "embed_dim": 16, "hidden": 16}
CONTEXTUAL = {"kind": "contextual", "forward": "lm/forward.bin",
              "backward": "lm/backward.bin"}

# train/dev/test are ner_train's splits; model_train is the train split of
# the taggers that are built rather than timed (ner_tag's model, the
# lm_pretrain probe), large enough that their test F1 is steady across seeds
SIZES = {
    "full": {"lm_chars": 40000, "heldout_chars": 12000,
             "train": 100, "dev": 30, "test": 100, "model_train": 200, "probe_test": 200,
             "epochs": 3, "runs": 2, "tag_tokens": 9000, "max_join": 6,
             "probe_hidden": 32, "min_repeats": 3},
    # the smoke check: every step at toy size, a single repeat
    "smoke": {"lm_chars": 12000, "heldout_chars": 1000,
              "train": 12, "dev": 4, "test": 6, "model_train": 12, "probe_test": 6,
              "epochs": 1, "runs": 2, "tag_tokens": 60, "max_join": 3,
              "probe_hidden": 8, "min_repeats": 1},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "chars_per_s": "1/s",
                    "tokens_per_s": "1/s", "peak_rss_mb": "MB",
                    "test_ppl": "ppl", "test_f1": "f1"}


class Checks:
    """Counts attempted commands and output checks, keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_config(path: str, config: dict) -> None:
    # JSON is a subset of YAML, so the CLI reads this as a run config
    Path(path).write_text(json.dumps(config, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_lm_config() -> None:
    write_config("lm.yaml", {"lm": {"forward": LM_DIRECTION, "backward": LM_DIRECTION}})


def lm_commands(prefix: str) -> list[list[str]]:
    """The paper's LM pipeline on ``plain.txt``: character vocabulary, SMLM
    corruption, then both LMs trained on the corrupted text; every output
    path starts with ``prefix``."""
    return [["vocab", "--plain", "plain.txt", "--output", f"{prefix}vocab.txt"],
            ["smlm", "--input", "plain.txt", "--vocab", f"{prefix}vocab.txt",
             "--output", f"{prefix}corrupted.txt", "--stats", f"{prefix}stats.txt",
             "--seed", "3"],
            ["lm", "train", "--config", "lm.yaml", "--corpus", f"{prefix}corrupted.txt",
             "--output-dir", f"{prefix}lm", "--seed", "5"]]


# ---------------------------------------------------------------------------
# running CLI commands


def command_name(argv: list[str]) -> str:
    """``lm_train`` for ``["lm", "train", ...]``, ``vocab`` for ``["vocab", ...]``."""
    return "_".join(a for a in argv[:2] if not a.startswith("-"))


class Cli:
    """Calls ``histtag.cli.main`` in this process and checks its exit code."""

    def __init__(self, main, checks: Checks, tracer=None):
        self.main = main
        self.checks = checks
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> float:
        """Run one command; returns its wall time in seconds."""
        name = "cli." + command_name(argv)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                if self.tracer is not None and self.tracer.enabled:
                    code = self.tracer.run(name, self.main, argv)
                else:
                    code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # a crash inside the program is a failed command, not a
                # crash of the benchmark
                buf.write(traceback.format_exc())
                code = 1
        elapsed = time.perf_counter() - start
        self.checks.expect(code == 0, f"{' '.join(argv)} exited {code}: "
                                      f"{buf.getvalue()[-2000:]}")
        return elapsed


# ---------------------------------------------------------------------------
# independent output checks


def read_columns(path) -> list[list[list[str]]]:
    """Sentences of a CoNLL file as lists of whitespace-split lines."""
    sentences, current = [], []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line.strip():
            current.append(line.split())
        elif current:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def iob2_spans(tags: list[str]) -> set[tuple[str, int, int]]:
    """Spans of an IOB2 sequence, conlleval style: an I- tag that does not
    continue a span of its label opens one."""
    spans, label, start = set(), None, 0
    for i, tag in enumerate(tags + ["O"]):
        prefix, _, kind = tag.partition("-")
        if label is not None and (prefix != "I" or kind != label):
            spans.add((label, start, i - 1))
            label = None
        if prefix == "B" or (prefix == "I" and label is None):
            label, start = kind, i
    return spans


def oracle_f1(predictions_path, gold_path, checks: Checks) -> float:
    """Micro span F1 of a ``token gold pred`` file, computed here; also
    checks that its tokens and gold tags are those of the input file."""
    pred = read_columns(predictions_path)
    gold = read_columns(gold_path)
    checks.expect([[r[:2] for r in s] for s in pred] == [[r[:2] for r in s] for s in gold],
                  f"{predictions_path}: tokens or gold tags differ from {gold_path}")
    tp = n_gold = n_pred = 0
    for sentence in pred:
        g = iob2_spans([r[1] for r in sentence])
        p = iob2_spans([r[2] for r in sentence])
        tp += len(g & p)
        n_gold += len(g)
        n_pred += len(p)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return 2 * precision * recall / (precision + recall) if tp else 0.0


def check_f1(report_f1: float, predictions, gold, checks: Checks) -> None:
    own = oracle_f1(predictions, gold, checks)
    checks.expect(abs(own - report_f1) < 1e-9,
                  f"{predictions}: program reports F1 {report_f1}, recomputed {own}")
    checks.expect(0.0 <= report_f1 <= 1.0, f"{predictions}: F1 {report_f1} out of range")


def check_lm_logs(lm_dir: str, checks: Checks) -> dict:
    """Final test perplexity in each LM's training log; checks that it is
    finite and improves on the untrained model."""
    values = {}
    for direction in ("forward", "backward"):
        log = json.loads(Path(f"{lm_dir}/{direction}_log.json").read_text())
        ppl = log["epochs"][-1]["test_perplexity"]
        checks.expect(math.isfinite(ppl) and 1.0 < ppl < log["initial_test_perplexity"],
                      f"{direction} LM: test perplexity {ppl} does not improve on "
                      f"{log['initial_test_perplexity']}")
        values[f"{direction}_log_ppl"] = ppl
    return values


def train_chars(lines: list[str]) -> int:
    """Characters ``train_lm`` trains on: the space-joined stream minus the
    two holdouts of 1/500 each (see ``charlm.train_lm``)."""
    n = sum(len(x) + 1 for x in lines) - 1
    return n - 2 * max(2, n // 500)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One seeded input set and the CLI commands timed on it.

    ``setup`` writes inputs and builds what the timed commands need;
    ``commands`` lists the timed commands; ``main`` names the command the
    throughputs divide by; ``work`` gives the characters and tokens that
    command processes; ``outputs`` lists the artifacts that must be
    byte-identical across repeats; ``quality`` checks a repeat's outputs and
    returns the values that must be identical across repeats; ``finish``
    runs the untimed steps after the loop and returns test perplexity and F1.

    test_ppl is always the mean perplexity of the two LMs on a held-out
    file of clean sentences (``lm ppl``): the test slice in the training
    logs is 1/500 of the LM corpus, a few dozen characters, too few to be
    steady across seeds.
    """

    main = ""
    lm_dir = "lm"
    setup_repeats = 3

    def __init__(self, seed: int, size: dict, inputs):
        self.seed = seed
        self.size = size
        self.inputs = inputs
        self.facts: dict = {}
        self.reload_mismatch_tags = 0

    def _ner_config(self, components, out_dir, runs, hidden=TAGGER["lstm_hidden"]) -> dict:
        return {"data": {"train": "train.conll", "dev": "dev.conll", "test": "test.conll"},
                "embeddings": components,
                "tagger": {**TAGGER, "lstm_hidden": hidden,
                           "max_epochs": self.size["epochs"]},
                "eval": {"runs": runs, "output_dir": out_dir}}

    def _inputs(self, train_size: int, test_size: int):
        """Tagged splits, LM corpus, held-out LM test text and word vectors,
        all drawn from one pool so no sentence occurs twice."""
        pool = self.inputs.SentencePool(self.seed)
        splits = {"train": pool.corpus(train_size, "train"),
                  "dev": pool.corpus(self.size["dev"], "dev"),
                  "test": pool.corpus(test_size, "test")}
        for name, corpus in splits.items():
            self.inputs.write_conll(corpus, f"{name}.conll")
        self.facts["tagged"] = {k: self.inputs.describe_tagged(v) for k, v in splits.items()}
        self.facts["test_in_train"] = self.inputs.overlap(splits["train"], splits["test"])
        self.lines = pool.plain_lines(self.size["lm_chars"])
        self.inputs.write_plain(self.lines, "plain.txt")
        self.facts["lm_corpus"] = self.inputs.describe_plain(self.lines)
        heldout = pool.plain_lines(self.size["heldout_chars"])
        self.inputs.write_plain(heldout, "heldout.txt")
        self.facts["heldout"] = self.inputs.describe_plain(heldout)
        self.facts["vectors"] = self.inputs.write_vectors(
            list(splits.values()), "vectors.txt", pool.rng)
        self.pool = pool
        return splits

    def _build_lms(self, cli: Cli) -> None:
        write_lm_config()
        for argv in lm_commands(""):
            cli(argv)

    def _reload_check(self, cli: Cli, run_dir: str, checks: Checks) -> None:
        """Tag the test file with the saved model and count the tags that
        differ from the predictions written by the in-memory model."""
        cli(["ner", "predict", "--model", f"{run_dir}/model.bin", "--input", "test.conll",
             "--output", f"{run_dir}/reloaded.conll"])
        before = read_columns(f"{run_dir}/predictions.conll")
        after = read_columns(f"{run_dir}/reloaded.conll")
        if checks.expect(len(before) == len(after) and all(
                len(a) == len(b) for a, b in zip(before, after)),
                f"{run_dir}: reloaded predictions do not align"):
            self.reload_mismatch_tags = sum(
                ra[2] != rb[2] for a, b in zip(before, after) for ra, rb in zip(a, b))

    def _heldout_ppl(self, cli: Cli, checks: Checks) -> float:
        values = []
        for direction in ("forward", "backward"):
            cli(["lm", "ppl", "--model", f"{self.lm_dir}/{direction}.bin",
                 "--input", "heldout.txt", "--output", f"heldout_{direction}.txt"])
            value = float(Path(f"heldout_{direction}.txt").read_text().split()[1])
            checks.expect(1.0 < value < len(Path("heldout.txt").read_text()),
                          f"{direction} LM: held-out perplexity {value}")
            values.append(value)
        return statistics.fmean(values)

    def setup_artifacts(self) -> list[str]:
        return ["train.conll", "dev.conll", "test.conll", "plain.txt", "heldout.txt",
                "vectors.txt"]

    def finish(self, cli: Cli, checks: Checks, quality: dict) -> dict:
        return {"test_ppl": self._heldout_ppl(cli, checks), "test_f1": quality["test_f1"]}


class LmPretrain(Workload):
    """vocab, smlm and lm train (both directions) on a plain corpus.

    Nearly all time is in ``nn.Lstm`` over TBPTT windows; embed, crf and
    tagger are idle, so a tagger-side change should leave it unchanged.
    test_f1 comes from an untimed probe tagger on word vectors and the
    freshly trained LMs' contextual states, the use the LMs exist for.
    """

    main = "lm_train"
    lm_dir = "out/lm"
    # its set-up only writes inputs, a few hundredths of a second, so it
    # takes more samples for a steady median
    setup_repeats = 15

    def setup(self, cli: Cli) -> None:
        self._inputs(self.size["model_train"], self.size["probe_test"])
        self.facts["rejected_share"] = self.pool.rejected_share()
        write_lm_config()
        contextual = {**CONTEXTUAL, "forward": "out/lm/forward.bin",
                      "backward": "out/lm/backward.bin"}
        write_config("probe.yaml", self._ner_config(
            [{"kind": "word_table", "path": "vectors.txt"}, contextual], "probe", 1,
            hidden=self.size["probe_hidden"]))

    def commands(self) -> list[list[str]]:
        return lm_commands("out/")

    def work(self) -> tuple[int, int]:
        directions = 2 * LM_DIRECTION["epochs"]
        tokens = sum(len(x.split()) for x in self.lines)
        return directions * train_chars(self.lines), directions * tokens

    def outputs(self) -> list[str]:
        return ["out/vocab.txt", "out/corrupted.txt", "out/stats.txt",
                "out/lm/forward.bin", "out/lm/backward.bin",
                "out/lm/forward_log.json", "out/lm/backward_log.json"]

    def quality(self, checks: Checks) -> dict:
        corrupted = Path("out/corrupted.txt").read_text(encoding="utf-8").split("\n")[:-1]
        checks.expect([len(x) for x in corrupted] == [len(x) for x in self.lines],
                      "smlm output does not keep every line's length")
        changed = sum(a != b for x, y in zip(self.lines, corrupted) for a, b in zip(x, y))
        share = changed / sum(len(x) for x in self.lines)
        checks.expect(0.05 < share < 0.12,
                      f"smlm changed {share:.4f} of characters, expected about 0.1")
        return check_lm_logs("out/lm", checks)

    def finish(self, cli: Cli, checks: Checks, quality: dict) -> dict:
        cli(["ner", "train", "--config", "probe.yaml"])
        report = json.loads(Path("probe/run0/report.json").read_text())
        check_f1(report["micro"]["f1"], "probe/run0/predictions.conll", "test.conll", checks)
        self._reload_check(cli, "probe/run0", checks)
        return {"test_ppl": self._heldout_ppl(cli, checks), "test_f1": report["micro"]["f1"]}


class NerTrain(Workload):
    """ner train with word vectors, char features and contextual LM states.

    Runs CRF forward-backward, Lstm.backward and per-token char LSTMs, and
    re-extracts the frozen contextual states every epoch, every dev
    evaluation and every run: where CRF and caching changes show.
    """

    main = "ner_train"

    def setup(self, cli: Cli) -> None:
        splits = self._inputs(self.size["train"], self.size["test"])
        self.facts["rejected_share"] = self.pool.rejected_share()
        self._build_lms(cli)
        write_config("ner.yaml", self._ner_config(
            [{"kind": "word_table", "path": "vectors.txt"}, CHAR_FEATURES, CONTEXTUAL],
            "ner", self.size["runs"]))
        self.train_tokens = self.facts["tagged"]["train"]["tokens"]
        self.train_chars = sum(len(" ".join(s.texts())) for s in splits["train"])

    def setup_artifacts(self) -> list[str]:
        return super().setup_artifacts() + ["lm/forward.bin", "lm/backward.bin"]

    def commands(self) -> list[list[str]]:
        return [["ner", "train", "--config", "ner.yaml"]]

    def work(self) -> tuple[int, int]:
        passes = self.size["epochs"] * self.size["runs"]
        return passes * self.train_chars, passes * self.train_tokens

    def outputs(self) -> list[str]:
        files = ["ner/summary.json"]
        for run in range(self.size["runs"]):
            files += [f"ner/run{run}/{name}" for name in
                      ("model.bin", "predictions.conll", "report.json", "training_log.json")]
        return files

    def quality(self, checks: Checks) -> dict:
        summary = json.loads(Path("ner/summary.json").read_text())
        f1s = []
        for run in range(self.size["runs"]):
            report = json.loads(Path(f"ner/run{run}/report.json").read_text())
            check_f1(report["micro"]["f1"], f"ner/run{run}/predictions.conll", "test.conll",
                     checks)
            f1s.append(report["micro"]["f1"])
        checks.expect(abs(summary["mean_f1"] - statistics.fmean(f1s)) < 1e-12,
                      "summary.json mean F1 is not the mean of the runs")
        return {"test_f1": summary["mean_f1"]}

    def finish(self, cli: Cli, checks: Checks, quality: dict) -> dict:
        self._reload_check(cli, "ner/run0", checks)
        return super().finish(cli, checks, quality)


class NerTag(Workload):
    """ner predict and eval on a large unseen file of joined sentences.

    Forward only, Viterbi instead of forward-backward, every sentence seen
    once, long lines of varied length: training-only changes and caches
    should leave it unchanged, and padding waste in a batched path shows.
    The reload check compares the saved model with the in-memory one.
    """

    main = "ner_predict"

    def setup(self, cli: Cli) -> None:
        self._inputs(self.size["model_train"], self.size["dev"])
        tag = self.pool.joined_corpus(self.size["tag_tokens"], self.size["max_join"], "test")
        self.inputs.write_conll(tag, "tag.conll")
        self.facts["tag_file"] = self.inputs.describe_tagged(tag)
        self.facts["tag_file"]["sentences_per_line"] = f"1..{self.size['max_join']}"
        self.facts["rejected_share"] = self.pool.rejected_share()
        self._build_lms(cli)
        write_config("ner.yaml", self._ner_config(
            [{"kind": "word_table", "path": "vectors.txt"}, CHAR_FEATURES, CONTEXTUAL],
            "model", 1))
        cli(["ner", "train", "--config", "ner.yaml"])
        self.tokens = self.facts["tag_file"]["tokens"]
        self.chars = sum(len(" ".join(s.texts())) for s in tag)

    def setup_artifacts(self) -> list[str]:
        return super().setup_artifacts() + [
            "tag.conll", "lm/forward.bin", "lm/backward.bin",
            "model/run0/model.bin", "model/run0/predictions.conll"]

    def commands(self) -> list[list[str]]:
        return [["ner", "predict", "--model", "model/run0/model.bin",
                 "--input", "tag.conll", "--output", "out/predictions.conll"],
                ["eval", "--predictions", "out/predictions.conll",
                 "--output", "out/eval.json"]]

    def work(self) -> tuple[int, int]:
        return self.chars, self.tokens

    def outputs(self) -> list[str]:
        return ["out/predictions.conll", "out/eval.json"]

    def quality(self, checks: Checks) -> dict:
        report = json.loads(Path("out/eval.json").read_text())
        check_f1(report["micro"]["f1"], "out/predictions.conll", "tag.conll", checks)
        return {"test_f1": report["micro"]["f1"]}

    def finish(self, cli: Cli, checks: Checks, quality: dict) -> dict:
        self._reload_check(cli, "model/run0", checks)
        return super().finish(cli, checks, quality)


CLASSES = {"lm_pretrain": LmPretrain, "ner_train": NerTrain, "ner_tag": NerTag}


# ---------------------------------------------------------------------------
# environment record


def blas_record() -> dict:
    """OpenBLAS builds loaded in this process and the thread count each
    will use, queried from the libraries themselves."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh}
    record = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p) and ".so" in p):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        record.append(entry)
    return {"openblas": record,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}


def git_commit() -> str:
    # without this check git would report an enclosing repository's commit
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy, scipy) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu": cpu_model(), "blas": blas_record(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


# ---------------------------------------------------------------------------
# the measurement


def layer_metrics(total: dict, main: dict, main_s: float) -> dict:
    """Per-layer metrics of one traced repeat.  ``total`` summarises every
    span of the repeat, ``main`` only those under the main command's span."""
    names, counters = total["names"], total["counters"]

    def get(name, stat, source=names):
        return source.get(name, {}).get(stat, 0)

    def share(part):
        return part / main_s if main_s else 0.0

    m = {}
    for name, stats in (
            ("nn.Lstm.forward", ("calls", "self_s")), ("nn.Lstm.backward", ("calls", "self_s")),
            ("nn.Linear.forward", ("self_s",)), ("nn.Linear.backward", ("self_s",)),
            ("nn.sgd_step", ("self_s",)), ("nn.clip_grad_norm", ("self_s",)),
            ("charlm.lm_forward", ("calls", "self_s")), ("charlm.train_lm", ("self_s",)),
            ("charlm.save_lm", ("s",)), ("charlm.load_lm", ("s",)),
            ("crf.crf_nll_with_grads", ("calls", "self_s")),
            ("crf.viterbi_decode", ("calls", "self_s")),
            ("embed.ContextualEmbedder.forward", ("calls", "incl_s")),
            ("embed.CharFeatureEncoder.forward", ("calls", "incl_s")),
            ("embed.CharFeatureEncoder.backward", ("calls", "incl_s")),
            ("embed.WordTableEmbedder.forward", ("self_s",)), ("embed.load_vectors", ("s",)),
            ("tagger.train_ner", ("self_s",)), ("tagger.predict", ("self_s",)),
            ("tagger.save_ner", ("s",)), ("tagger.load_ner", ("s",)),
            ("serialization.save_tensors", ("calls", "s")),
            ("serialization.load_tensors", ("calls", "s")),
            ("serialization.file_sha256", ("calls", "s")),
            ("smlm.smlm_transform", ("s",)), ("corpus.read_conll", ("s",)),
            ("corpus.read_plain", ("s",)), ("corpus.extract_char_vocab", ("s",)),
            ("evaluation.evaluate", ("calls", "s"))):
        for stat in stats:
            m[f"{name}.{stat}"] = get(name, "incl_s" if stat == "s" else stat)
    m["nn.Lstm.forward.positions"] = counters.get("nn.Lstm.forward.positions", 0)
    clip_calls = get("nn.clip_grad_norm", "calls")
    m["nn.clip_grad_norm.clipped_share"] = (
        counters.get("nn.clip_grad_norm.clipped", 0) / clip_calls if clip_calls else 0.0)
    m["nn.clip_grad_norm.nonfinite_calls"] = counters.get("nn.clip_grad_norm.nonfinite_calls", 0)
    for name in ("save_tensors", "load_tensors", "file_sha256"):
        m[f"serialization.{name}.bytes"] = counters.get(f"serialization.{name}.bytes", 0)
    ctx_calls = get("embed.ContextualEmbedder.forward", "calls")
    m["embed.ContextualEmbedder.forward.repeat_share"] = (
        1.0 - counters["embed.ContextualEmbedder.forward.distinct"] / ctx_calls
        if ctx_calls else 0.0)
    main_names = main["names"]
    m["nn.Lstm.main_share"] = share(get("nn.Lstm.forward", "self_s", main_names)
                                    + get("nn.Lstm.backward", "self_s", main_names))
    m["crf.crf_nll_with_grads.main_share"] = share(
        get("crf.crf_nll_with_grads", "self_s", main_names))
    m["crf.viterbi_decode.main_share"] = share(get("crf.viterbi_decode", "self_s", main_names))
    m["embed.ContextualEmbedder.forward.main_share"] = share(
        get("embed.ContextualEmbedder.forward", "incl_s", main_names))
    for command in ("vocab", "smlm", "lm_train", "ner_train", "ner_predict", "eval"):
        m[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    return m


LAYER_UNITS = {"calls": "count", "positions": "count", "bytes": "bytes",
               "nonfinite_calls": "count", "self_s": "s", "incl_s": "s", "s": "s",
               "clipped_share": "share", "repeat_share": "share", "main_share": "share",
               "reload_mismatch_tags": "count", "wall_s": "s", "overhead_s": "s"}


def repeat_once(workload: Workload, cli: Cli, checks: Checks, tracer=None) -> dict:
    """One pass of the timed commands plus its output checks."""
    for path in ("out", "ner", "probe"):
        shutil.rmtree(path, ignore_errors=True)
    Path("out").mkdir()
    if tracer is not None:
        tracer.reset()
        tracer.install()
        tracer.enabled = True
    times = {}
    start = time.perf_counter()
    try:
        for argv in workload.commands():
            times[command_name(argv)] = cli(argv)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    hashes = {}
    for path in workload.outputs():
        if checks.expect(Path(path).is_file(), f"missing artifact {path}"):
            hashes[path] = sha256(path)
    return {"wall_s": wall, "times": times, "hashes": hashes,
            "quality": workload.quality(checks) if not checks.failures else {}}


def measure(args, size: dict) -> int:
    t0 = time.perf_counter()
    import numpy
    import scipy

    import histtag.cli
    # recorded, not part of setup_s: one sample per process, and it swings
    # by a third between runs on a shared host (page faults, file cache)
    import_s = time.perf_counter() - t0
    if not Path(histtag.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported histtag from {histtag.cli.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2
    import inputs  # the script's directory is first on sys.path

    env = environment(numpy, scipy)
    checks = Checks()
    for entry in env["blas"]["openblas"]:
        checks.expect(entry.get("threads", 1) <= env["nproc"],
                      f"{entry['library']} uses {entry.get('threads')} threads "
                      f"on {env['nproc']} CPUs")

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(run_dir)
    try:
        record = run_workload(args, size, inputs, histtag.cli.main, checks)
        record["import_s"] = import_s
    finally:
        os.chdir(home)
        shutil.rmtree(run_dir, ignore_errors=True)
    record["environment"] = env
    record["environment"]["seed"] = args.seed

    attempted, failed = checks.attempted, len(checks.failures)
    record.update({"attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "failures": checks.failures})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        stem += f"-{args.scale}"
    spans = record.pop("spans", None)
    if spans is not None:
        spans.dump(results / f"{stem}.spans.json.gz")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    print(f"import of numpy, scipy and histtag.cli: {import_s:.3f} s (not in setup_s)")
    for failure in checks.failures:
        print("FAILED " + failure[:500])
    for name, entry in record["metrics"].items():
        print(f"{name:48s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{'error_rate':48s} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} commands and checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def run_workload(args, size, inputs, main, checks: Checks) -> dict:
    workload = CLASSES[args.workload](args.seed, size, inputs)
    setup_cli = Cli(main, checks)
    setup_times, setup_hashes = [], []
    for _ in range(1 if args.trace else workload.setup_repeats):
        for entry in os.listdir("."):
            shutil.rmtree(entry) if os.path.isdir(entry) else os.remove(entry)
        start = time.perf_counter()
        workload.setup(setup_cli)
        setup_times.append(time.perf_counter() - start)
        setup_hashes.append({p: sha256(p) for p in workload.setup_artifacts() if Path(p).is_file()})
    for later in setup_hashes[1:]:
        checks.expect(later == setup_hashes[0], "set-up artifacts differ between set-ups")
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "inputs": workload.facts, "setup_runs_s": setup_times}
    if checks.failures:
        record["metrics"] = {}
        return record

    cli = Cli(main, checks)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    repeats, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not checks.failures:
        repeats.append(repeat_once(workload, cli, checks))
        if tracer is not None and not checks.failures:
            traced.append(repeat_once(workload, Cli(main, checks, tracer), checks, tracer))
            traced[-1]["total"] = tracer.summary()
            traced[-1]["main"] = tracer.summary(root="cli." + workload.main)
        if len(repeats) >= size["min_repeats"] and time.perf_counter() >= deadline:
            break
    # the peak of set-up and timed loop, before the untimed finish steps
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for later in repeats[1:] + traced:
        checks.expect(later["hashes"] == repeats[0]["hashes"],
                      "artifacts differ between repeats of one seed")
        checks.expect(later["quality"] == repeats[0]["quality"],
                      f"quality differs between repeats: {later['quality']} "
                      f"vs {repeats[0]['quality']}")
    final = {}
    if not checks.failures:
        final = workload.finish(Cli(main, checks), checks, repeats[0]["quality"])
    record["repeats"] = [{k: r[k] for k in ("wall_s", "times")} for r in repeats]
    if checks.failures:
        record["metrics"] = {}
        return record

    if tracer is not None:
        record["metrics"] = traced_metrics(workload, repeats, traced)
        record["spans"] = tracer
        return record

    chars, tokens = workload.work()
    main_s = statistics.median(r["times"][workload.main] for r in repeats)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in repeats),
        "chars_per_s": chars / main_s,
        "tokens_per_s": tokens / main_s,
        "peak_rss_mb": peak_rss_mb,
        **final,
    }
    record["reload_mismatch_tags"] = workload.reload_mismatch_tags
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END_UNITS.items()}
    return record


def traced_metrics(workload: Workload, repeats: list, traced: list) -> dict:
    per_repeat = []
    for r in traced:
        m = layer_metrics(r["total"], r["main"], r["times"][workload.main])
        m["trace.wall_s"] = r["wall_s"]
        # the main command's time that no wrapped layer accounts for
        m["trace.unattributed.main_share"] = (
            r["main"]["names"][f"cli.{workload.main}"]["self_s"] / r["times"][workload.main])
        per_repeat.append(m)
    values = {name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]}
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(r["wall_s"] for r in repeats))
    values["tagger.reload_mismatch_tags"] = workload.reload_mismatch_tags
    return {name: {"value": values[name], "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(CLASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure at least this long (after set-up)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input sizes; 'smoke' is the reduced check of smoke.py")
    args = parser.parse_args(argv)
    src = ROOT / "src" / "histtag" / "__init__.py"
    if not src.is_file():
        print(f"error: no histtag sources at {src.parent}; run from a histtag checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the program is single-threaded numpy over small matrices; a second
    # BLAS thread made ner predict slower and noisier on a shared 2-core host
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return measure(args, SIZES[args.scale])


if __name__ == "__main__":
    raise SystemExit(main())
