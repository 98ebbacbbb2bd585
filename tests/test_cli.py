import copy
import ctypes
import json
import logging
import multiprocessing
import os
import re
import resource
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from histtag import cli, embed
from histtag.charlm import CharLmConfig
from histtag.cli import load_run_config, main, validate_config
from histtag.corpus import (
    TagScheme,
    extract_char_vocab,
    length_groups,
    read_conll,
    read_plain,
    sentence_text,
)
from histtag.errors import ConfigError
from histtag.serialization import file_sha256
from histtag.smlm import SmlmConfig
from histtag.tagger import TaggerConfig
from histtag.toydata import write_toy_dataset


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    return write_toy_dataset(out, seed=0)


def write_config(path, body) -> str:
    path.write_text(yaml.safe_dump(body), encoding="utf-8")
    return str(path)


def section_doc(section, body):
    """A run config holding ``body`` at ``section`` ("lm.backward" nests)."""
    return {"lm": {"backward": body}} if section == "lm.backward" else {section: body}


SECTION_CLASSES = {"lm.backward": CharLmConfig, "tagger": TaggerConfig, "smlm": SmlmConfig}
DATACLASS_FIELDS = (
    [("lm.backward", f.name) for f in fields(CharLmConfig) if f.name != "direction"]
    + [("tagger", f.name) for f in fields(TaggerConfig)]
    + [("smlm", f.name) for f in fields(SmlmConfig)])


class TestConfigValidation:
    @pytest.mark.parametrize("section,key", DATACLASS_FIELDS)
    def test_every_dataclass_field_accepted(self, section, key):
        # 1, 1.0 or "1", by the field's annotation
        kind = {f.name: f.type for f in fields(SECTION_CLASSES[section])}[key]
        validate_config(section_doc(section, {key: kind(1)}))

    @pytest.mark.parametrize("doc", [
        {"tagger": {"learning_rate": 1}},     # a float key takes an int
        {"smlm": {"p_keep": 1, "mask_char": "#"}},
        {"lm": {"forward": {"dropout": 0, "hidden_size": 8}}},
        {"data": {"tag_column": -1, "scheme": "iobes"}},
        {"embeddings": [{"kind": "char_features", "embed_dim": 3}]},
    ])
    def test_right_typed_values_accepted(self, doc):
        assert validate_config(doc) == doc

    @pytest.mark.parametrize("doc,where", [
        ({"tagger": {"learning_rate": True}}, "tagger.learning_rate"),  # no bool
        ({"data": {"scheme": 2}}, "data.scheme"),
        ({"vocab": {"path": ["a"]}}, "vocab.path"),
        ({"smlm": {"mask_char": 1}}, "smlm.mask_char"),
        ({"embeddings": [{"kind": "word_table", "path": 3}]}, "embeddings[0].path"),
    ])
    def test_wrong_typed_values_rejected(self, doc, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            validate_config(doc)

    def test_null_reads_as_absent(self):
        doc = {"data": {"test": None, "scheme": "iob2"}, "embeddings": None,
               "lm": {"forward": None, "seed": 2}, "eval": None}
        assert validate_config(doc) == {"data": {"scheme": "iob2"}, "lm": {"seed": 2}}

    def test_readme_example_config_validates(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        example = readme.read_text(encoding="utf-8").split("```yaml\n", 1)[1]
        config = yaml.safe_load(example.split("```", 1)[0])
        assert {"data", "smlm", "lm", "embeddings", "tagger", "eval"} <= set(config)
        assert validate_config(config) == config

    @pytest.mark.parametrize("section", ["lm.backward", "tagger", "smlm"])
    def test_non_field_rejected(self, section):
        # direction is a CharLmConfig field the command sets itself
        with pytest.raises(ConfigError, match=section):
            validate_config(section_doc(section, {"direction": "forward"}))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"dataa": {}})

    @pytest.mark.parametrize("section,body", [
        ("data", {"trian": "x"}),
        ("smlm", {"pkeep": 0.9}),
        ("tagger", {"hidden": 4}),
        ("eval", {"run": 1}),
        ("vocab", {"file": "x"}),
        ("tagger", {1: 4, "x": 2}),                  # YAML reads `1:` as an int key
    ])
    def test_unknown_key_in_section(self, section, body):
        with pytest.raises(ConfigError, match=section):
            validate_config({section: body})

    def test_unknown_lm_field(self):
        with pytest.raises(ConfigError, match="lm.forward"):
            validate_config({"lm": {"forward": {"hidden": 8}}})

    @pytest.mark.parametrize("components", [
        {"kind": "word_table"},                      # not a list
        [{"path": "x"}],                             # missing kind
        [{"kind": "glove", "path": "x"}],            # unknown kind
        [{"kind": "word_table", "dim": 5}],          # key from wrong kind
        [{"kind": "contextual", "forward": "f"}],    # fine keys checked later
    ])
    def test_embeddings_shape(self, components):
        if components == [{"kind": "contextual", "forward": "f"}]:
            validate_config({"embeddings": components})
        else:
            with pytest.raises(ConfigError):
                validate_config({"embeddings": components})

    def test_yaml_errors(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("data: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="YAML"):
            load_run_config(bad)
        not_map = tmp_path / "list.yaml"
        not_map.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(not_map)
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "missing.yaml")

    def test_empty_file_is_empty_config(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("", encoding="utf-8")
        assert load_run_config(empty) == {}


def with_bad_byte(source, target) -> int:
    """Copy ``source`` to ``target`` with a Latin-1 byte before its first
    line end; returns that byte's offset."""
    data = Path(source).read_bytes()
    at = data.index(b"\n")
    target.write_bytes(data[:at] + b"\xe4" + data[at:])
    return at


class TestInvalidUtf8:
    """A non-UTF-8 byte in any text input ends the command with its file
    and byte offset on stderr and no traceback."""

    @pytest.mark.parametrize("source, argv", [
        ("CORPUS", ["vocab", "--plain", "BAD", "--output", "OUT"]),
        ("TRAIN", ["vocab", "--conll", "BAD", "--output", "OUT"]),
        ("CORPUS", ["smlm", "--input", "CORPUS", "--vocab", "BAD",
                    "--output", "OUT", "--seed", "1"]),
        ("VOCAB", ["smlm", "--input", "CORPUS", "--vocab", "BAD",
                   "--output", "OUT", "--seed", "1"]),
        ("PREDICTIONS", ["eval", "--predictions", "BAD"]),
        ("TEST", ["eval", "--gold", "BAD", "--pred", "TEST"]),
    ], ids=["plain", "conll", "smlm_vocab_sniff", "smlm_vocab_file",
            "eval_predictions", "eval_gold"])
    def test_exit_1_with_the_offset(self, toy, tmp_path, capsys, source, argv):
        files = {"CORPUS": toy["lm_corpus"], "TRAIN": toy["train"], "TEST": toy["test"],
                 "VOCAB": tmp_path / "vocab.txt", "PREDICTIONS": tmp_path / "pred.conll",
                 "BAD": tmp_path / "bad.txt", "OUT": tmp_path / "out.txt"}
        extract_char_vocab(read_plain(toy["lm_corpus"])).to_path(files["VOCAB"])
        files["PREDICTIONS"].write_text("Wien B-LOC B-LOC\nliegt O O\n\n", encoding="utf-8")
        at = with_bad_byte(files[source], files["BAD"])
        assert main([str(files.get(a, a)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {files['BAD']}: invalid UTF-8 (byte offset {at})\n"
        assert not files["OUT"].exists()

    def test_run_config_exits_2(self, toy, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        write_config(config, {"data": {"train": str(toy["train"])}})
        bad = tmp_path / "bad.yaml"
        at = with_bad_byte(config, bad)
        with pytest.raises(ConfigError, match=rf"invalid UTF-8 \(byte offset {at}\)"):
            load_run_config(bad)
        assert main(["ner", "train", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: invalid UTF-8 (byte offset {at})\n"


class TestVocabCommand:
    def test_union_of_two_datasets(self, toy, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        rc = main(["vocab", "--plain", str(toy["lm_corpus"]),
                   "--conll", str(toy["train"]), "--output", str(out)])
        assert rc == 0
        assert "2 source(s)" in capsys.readouterr().out
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# histtag vocab v1:")

    def test_rerun_byte_identical(self, toy, tmp_path):
        out = tmp_path / "vocab.txt"
        argv = ["vocab", "--conll", str(toy["train"]), "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_missing_input_is_usage_error(self, tmp_path):
        rc = main(["vocab", "--plain", str(tmp_path / "nope.txt"),
                   "--output", str(tmp_path / "v.txt")])
        assert rc == 2

    def test_no_inputs_is_usage_error(self, tmp_path):
        assert main(["vocab", "--output", str(tmp_path / "v.txt")]) == 2

    def test_manifest_hashes_sources_and_vocab(self, toy, tmp_path):
        out = tmp_path / "vocab.txt"
        assert main(["vocab", "--plain", str(toy["lm_corpus"]),
                     "--conll", str(toy["train"]), "--output", str(out)]) == 0
        manifest_path = tmp_path / "vocab.txt.manifest.json"
        first = manifest_path.read_bytes()
        manifest = json.loads(first.decode("utf-8"))
        assert manifest["command"] == "vocab"
        assert manifest["config"]["data"]["plain"] == [str(toy["lm_corpus"])]
        assert manifest["config"]["data"]["conll"] == [str(toy["train"])]
        assert manifest["config"]["vocab"] == {"path": str(out)}
        assert manifest["inputs"] == {
            "plain[0]": {"path": str(toy["lm_corpus"]),
                         "sha256": file_sha256(toy["lm_corpus"])},
            "conll[0]": {"path": str(toy["train"]), "sha256": file_sha256(toy["train"])}}
        assert manifest["artifacts"] == {
            "vocab": {"path": str(out), "sha256": file_sha256(out)}}
        assert main(["vocab", "--plain", str(toy["lm_corpus"]),
                     "--conll", str(toy["train"]), "--output", str(out)]) == 0
        assert manifest_path.read_bytes() == first

    def test_config_driven(self, toy, tmp_path):
        out = tmp_path / "v.txt"
        cfg = write_config(tmp_path / "c.yaml", {
            "data": {"train": str(toy["train"]),
                     "lm_corpus": str(toy["lm_corpus"])},
            "vocab": {"path": str(out)},
        })
        assert main(["vocab", "--config", cfg]) == 0
        assert out.exists()


class TestSmlmCommand:
    def test_flags_round_trip(self, toy, tmp_path):
        out = tmp_path / "corrupted.txt"
        stats = tmp_path / "stats.txt"
        rc = main(["smlm", "--input", str(toy["lm_corpus"]),
                   "--vocab", str(toy["lm_corpus"]),
                   "--p-keep", "0.9", "--seed", "7",
                   "--output", str(out), "--stats", str(stats)])
        assert rc == 0
        original = toy["lm_corpus"].read_text(encoding="utf-8").splitlines()
        corrupted = out.read_text(encoding="utf-8").splitlines()
        assert len(original) == len(corrupted)
        assert all(len(a) == len(b) for a, b in zip(original, corrupted))
        assert "corruption report" in stats.read_text(encoding="utf-8")

    def test_deterministic_and_manifest_hashes(self, toy, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main(["smlm", "--input", str(toy["lm_corpus"]),
                       "--vocab", str(toy["lm_corpus"]), "--seed", "3",
                       "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        manifest = json.loads(
            (tmp_path / "a.txt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["artifacts"]["output"]["sha256"] == \
            file_sha256(tmp_path / "a.txt")
        assert manifest["seeds"] == {"smlm": 3}
        assert "timestamp" not in json.dumps(manifest)

    def test_vocab_file_accepted(self, toy, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        assert main(["vocab", "--plain", str(toy["lm_corpus"]),
                     "--output", str(vocab_file)]) == 0
        via_file = tmp_path / "via_file.txt"
        via_data = tmp_path / "via_data.txt"
        for vocab_arg, out in ((vocab_file, via_file),
                               (toy["lm_corpus"], via_data)):
            assert main(["smlm", "--input", str(toy["lm_corpus"]),
                         "--vocab", str(vocab_arg), "--seed", "1",
                         "--output", str(out)]) == 0
        assert via_file.read_bytes() == via_data.read_bytes()

    def test_corpus_starting_with_code_point_text_is_a_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("U+00E4 heisst ae\nWien liegt an der Donau\n",
                          encoding="utf-8")
        vocab_file = tmp_path / "vocab.txt"
        assert main(["vocab", "--plain", str(corpus),
                     "--output", str(vocab_file)]) == 0
        via_file, via_data = tmp_path / "via_file.txt", tmp_path / "via_data.txt"
        for vocab_arg, out in ((vocab_file, via_file), (corpus, via_data)):
            assert main(["smlm", "--input", str(corpus),
                         "--vocab", str(vocab_arg), "--seed", "1",
                         "--output", str(out)]) == 0
        assert via_file.read_bytes() == via_data.read_bytes()

    def test_manifest_records_dataclass_values(self, toy, tmp_path):
        out = tmp_path / "kept.txt"
        cfg = write_config(tmp_path / "c.yaml", {
            "data": {"lm_corpus": str(toy["lm_corpus"])},
            "vocab": {"path": str(toy["lm_corpus"])},
            "smlm": {"p_keep": 1, "output": str(out)},
        })
        assert main(["smlm", "--config", cfg]) == 0
        assert out.read_bytes() == toy["lm_corpus"].read_bytes()
        manifest = json.loads(
            (tmp_path / "kept.txt.manifest.json").read_text(encoding="utf-8"))
        smlm = manifest["config"]["smlm"]
        assert smlm["p_keep"] == 1.0 and isinstance(smlm["p_keep"], float)
        assert smlm["p_mask_given_change"] == 0.2
        assert set(smlm) == {"mask_char", "seed", "p_keep", "p_mask_given_change", "output"}
        assert smlm["seed"] == 0 and manifest["seeds"] == {"smlm": 0}

    def test_input_without_characters_fails_before_writing(self, toy, tmp_path):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n", encoding="utf-8")
        out = tmp_path / "corrupted.txt"
        rc = main(["smlm", "--input", str(blank), "--vocab", str(toy["lm_corpus"]),
                   "--output", str(out), "--stats", str(tmp_path / "stats.txt")])
        assert rc == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blank.txt"]

    def test_missing_output_is_usage_error(self, toy):
        rc = main(["smlm", "--input", str(toy["lm_corpus"]),
                   "--vocab", str(toy["lm_corpus"])])
        assert rc == 2


LM_SECTION = {
    "seed": 5,
    "forward": {"char_embed_dim": 8, "hidden_size": 8,
                "sequence_length": 30, "epochs": 1, "dropout": 0.0},
    "backward": {"char_embed_dim": 8, "hidden_size": 8,
                 "sequence_length": 30, "epochs": 1, "dropout": 0.0},
}


class TestLmCommands:
    def test_train_both_directions(self, toy, tmp_path, capsys):
        out_dir = tmp_path / "lm"
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(out_dir)},
        })
        assert main(["lm", "train", "--config", cfg]) == 0
        for name in ("forward.bin", "backward.bin", "forward_log.json",
                     "backward_log.json", "manifest.json"):
            assert (out_dir / name).exists(), name
        log = json.loads((out_dir / "forward_log.json").read_text())
        assert len(log["epochs"]) == 1
        assert log["initial_test_perplexity"] > 0

    def test_epochs_flag_overrides_config(self, toy, tmp_path):
        out_dir = tmp_path / "lm"
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(out_dir)},
        })
        assert main(["lm", "train", "--config", cfg, "--direction",
                     "forward", "--epochs", "2"]) == 0
        log = json.loads((out_dir / "forward_log.json").read_text())
        assert len(log["epochs"]) == 2
        assert not (out_dir / "backward.bin").exists()

    def test_ppl_plain_and_conll(self, toy, tmp_path, capsys):
        out_dir = tmp_path / "lm"
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(out_dir)},
        })
        assert main(["lm", "train", "--config", cfg, "--direction",
                     "forward"]) == 0
        capsys.readouterr()
        assert main(["lm", "ppl", "--model", str(out_dir / "forward.bin"),
                     "--input", str(toy["lm_corpus"])]) == 0
        plain = float(capsys.readouterr().out.split()[-1])
        assert plain > 1.0
        report = tmp_path / "ppl.txt"
        assert main(["lm", "ppl", "--model", str(out_dir / "forward.bin"),
                     "--input", str(toy["test"]), "--format", "conll",
                     "--output", str(report)]) == 0
        assert report.read_text(encoding="utf-8").startswith("perplexity ")

    def test_diverging_training_is_runtime_error(self, toy, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(tmp_path / "lm")},
        })
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["lm", "train", "--config", cfg, "--direction", "forward",
                         "--learning-rate", "1.7e308"]) == 1
        assert "non-finite gradient norm at epoch 1" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_learning_rate_is_config_error(self, toy, tmp_path, rate):
        """Rejected before any training, so no numpy warning reaches stderr."""
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(tmp_path / "lm")},
        })
        done = subprocess.run(
            [sys.executable, "-m", "histtag.cli", "lm", "train", "--config", cfg,
             "--learning-rate", rate],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert done.returncode == 2
        assert f"learning_rate must be finite, got {rate}" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not (tmp_path / "lm").exists()

    def test_bad_model_file_is_runtime_error(self, toy, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"not a model")
        rc = main(["lm", "ppl", "--model", str(junk),
                   "--input", str(toy["lm_corpus"])])
        assert rc == 1

    def test_unknown_config_key_is_usage_error(self, toy, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           {"lm": {"corpuss": str(toy["lm_corpus"])}})
        assert main(["lm", "train", "--config", cfg]) == 2

    def test_bad_backward_config_fails_before_any_training(self, toy, tmp_path, capsys):
        out_dir = tmp_path / "lm"
        section = {**LM_SECTION, "backward": {**LM_SECTION["backward"], "dropout": 1.5}}
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**section, "corpus": str(toy["lm_corpus"]), "output_dir": str(out_dir)}})
        assert main(["lm", "train", "--config", cfg]) == 2
        assert "lm.backward" in capsys.readouterr().err
        assert not (out_dir / "forward.bin").exists()
        assert not (out_dir / "forward_log.json").exists()


def ner_config(tmp_path, toy, out_dir, **tagger_overrides):
    tagger = {"lstm_hidden": 8, "learning_rate": 0.5, "mini_batch": 8,
              "max_epochs": 2, "seed": 11, **tagger_overrides}
    return write_config(tmp_path / "ner.yaml", {
        "data": {"train": str(toy["train"]), "dev": str(toy["dev"]),
                 "test": str(toy["test"]), "scheme": "iob2"},
        "embeddings": [{"kind": "char_features",
                        "embed_dim": 6, "hidden": 6}],
        "tagger": tagger,
        "eval": {"runs": 2, "output_dir": str(out_dir)},
    })


class TestNerTrain:
    def test_runs_artifacts_and_summary(self, toy, tmp_path, capsys):
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir)
        assert main(["ner", "train", "--config", cfg]) == 0
        for run in ("run0", "run1"):
            for name in ("model.bin", "predictions.conll", "report.txt",
                         "report.json", "training_log.json"):
                assert (out_dir / run / name).exists(), f"{run}/{name}"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["evaluated_on"] == "test"
        assert len(summary["runs"]) == 2
        assert summary["mean_f1"] == pytest.approx(
            sum(summary["runs"]) / 2)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == {"base_seed": 11, "runs": [11, 12]}

    def test_derived_seeds_differ_across_runs(self, toy, tmp_path):
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir)
        assert main(["ner", "train", "--config", cfg]) == 0
        logs = [json.loads((out_dir / f"run{i}" / "training_log.json")
                           .read_text()) for i in range(2)]
        # different seeds give different loss traces
        assert logs[0]["records"][0]["train_loss"] != \
            logs[1]["records"][0]["train_loss"]

    def test_manifest_reexecution_identical_hashes(self, toy, tmp_path):
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir)
        assert main(["ner", "train", "--config", cfg, "--runs", "1"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        recorded = {k: v["sha256"]
                    for k, v in manifest["artifacts"].items()}
        rerun_cfg = write_config(tmp_path / "rerun.yaml", manifest["config"])
        import shutil
        shutil.rmtree(out_dir)
        assert main(["ner", "train", "--config", rerun_cfg]) == 0
        fresh = {k: file_sha256(v["path"])
                 for k, v in manifest["artifacts"].items()}
        assert fresh == recorded

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_learning_rate_is_config_error(self, toy, tmp_path, capsys, rate):
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ner", "train", "--config", cfg, "--learning-rate", rate]) == 2
        assert f"learning_rate must be finite, got {rate}" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out_dir.exists()

    def test_flag_overrides_reach_training(self, toy, tmp_path):
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir)
        assert main(["ner", "train", "--config", cfg, "--runs", "1",
                     "--max-epochs", "1", "--seed", "99"]) == 0
        log = json.loads((out_dir / "run0" / "training_log.json").read_text())
        assert len(log["records"]) == 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"]["base_seed"] == 99

    def test_run_that_never_improves_warns(self, toy, tmp_path, caplog):
        """At lr 0.1 the char-features tagger scores dev F1 0 in its one
        epoch, so it keeps its initial parameters."""
        out_dir = tmp_path / "ner"
        cfg = ner_config(tmp_path, toy, out_dir, learning_rate=0.1, max_epochs=1)
        with caplog.at_level(logging.WARNING, logger="histtag.cli"):
            assert main(["ner", "train", "--config", cfg, "--runs", "1"]) == 0
        log = json.loads((out_dir / "run0" / "training_log.json").read_text())
        assert (log["status"], log["best_epoch"]) == ("no_improvement", 0)
        assert any("run 0: dev F1 never rose above 0" in r.getMessage()
                   for r in caplog.records if r.levelno == logging.WARNING)

    def test_missing_data_path_is_usage_error(self, toy, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "data": {"train": str(tmp_path / "absent.conll"),
                     "dev": str(toy["dev"])},
            "eval": {"output_dir": str(tmp_path / "o")},
        })
        assert main(["ner", "train", "--config", cfg]) == 2

    def test_all_component_kinds_and_their_files_in_manifest(self, toy, tmp_path):
        lm_dir = tmp_path / "lm"
        lm_cfg = write_config(tmp_path / "lm.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]),
                   "output_dir": str(lm_dir)},
        })
        assert main(["lm", "train", "--config", lm_cfg]) == 0
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("Wien 0.5 -0.5\nGraz 0.25 1.0\n", encoding="utf-8")
        out_dir = tmp_path / "ner"
        cfg = write_config(tmp_path / "ner.yaml", {
            "data": {"train": str(toy["train"]), "dev": str(toy["dev"])},
            "embeddings": [
                {"kind": "word_table", "path": str(vectors)},
                {"kind": "char_features", "embed_dim": 4, "hidden": 4},
                {"kind": "contextual", "forward": str(lm_dir / "forward.bin"),
                 "backward": str(lm_dir / "backward.bin")}],
            "tagger": {"lstm_hidden": 4, "max_epochs": 1, "seed": 3},
            "eval": {"runs": 2, "output_dir": str(out_dir)},
        })
        assert main(["ner", "train", "--config", cfg]) == 0
        inputs = json.loads((out_dir / "manifest.json").read_text())["inputs"]
        for name, path in (("embeddings[0].path", vectors),
                           ("embeddings[2].forward", lm_dir / "forward.bin"),
                           ("embeddings[2].backward", lm_dir / "backward.bin")):
            assert inputs[name] == {"path": str(path), "sha256": file_sha256(path)}
        for run in ("run0", "run1"):
            assert (out_dir / run / "model.bin").exists()

    def test_embedding_paths_checked_before_training(self, toy, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "data": {"train": str(toy["train"]), "dev": str(toy["dev"])},
            "embeddings": [{"kind": "contextual",
                            "forward": str(tmp_path / "no_f.bin"),
                            "backward": str(tmp_path / "no_b.bin")}],
            "eval": {"output_dir": str(tmp_path / "o")},
        })
        assert main(["ner", "train", "--config", cfg]) == 2


class TestLogLevel:
    """HISTTAG_LOG names a logging level in any case, as the README's
    ``HISTTAG_LOG=debug`` does; anything else is a config error that names
    the variable, with no traceback."""

    @staticmethod
    def run_version(value):
        return subprocess.run(
            [sys.executable, "-m", "histtag.cli", "--version"],
            capture_output=True, text=True,
            env={**os.environ, "HISTTAG_LOG": value,
                 "PYTHONPATH": str(Path(cli.__file__).parents[1])})

    @pytest.mark.parametrize("value", ["debug", "Info", "WARNING", ""])
    def test_level_names_in_any_case(self, value):
        done = self.run_version(value)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("histtag ") and done.stderr == ""

    @pytest.mark.parametrize("value", ["verbose", "10"])
    def test_unknown_value_is_config_error(self, value):
        done = self.run_version(value)
        assert done.returncode == 2
        assert done.stderr == (f"error: HISTTAG_LOG must name a logging level such as "
                               f"debug, info or warning, got {value!r}\n")

    def test_lowercase_debug_is_the_debug_level(self, monkeypatch):
        monkeypatch.setenv("HISTTAG_LOG", "debug")
        assert cli._log_level() == logging.DEBUG


# a TBPTT window's temporaries: eight 1 MiB blocks, written and freed
# together, 100 times, after a command has set the process up
CHURN = """
import resource
import numpy as np
from histtag import cli
try:
    cli.main(["--version"])
except SystemExit:
    pass
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    blocks = [np.ones(1 << 17) for _ in range(8)]
    del blocks
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def run_python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's histtag."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


class TestFreedHeap:
    """``main`` has glibc keep freed heap in the process
    (``parallel.retain_freed_heap``), which changes where blocks live but
    no result.  Each check runs in a fresh process, so no earlier ``main``
    call in this one decides it."""

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt")
    def test_freed_blocks_are_reused_without_page_faults(self):
        """The first pass faults its 8 MiB in once.  Under glibc's defaults
        freeing them trims the top of the heap, and every pass faults the
        same 2,048 pages (of 4 KiB) in again: about 200k faults."""
        done = run_python(CHURN)
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout.split()[-1])
        assert faults < 5 * (8 << 20) // resource.getpagesize()

    def test_lm_files_equal_those_of_glibc_defaults(self, toy, tmp_path):
        """Dimensions at which a window's gates (30 x 4 x 256 floats) lie
        above glibc's default 128 KiB mmap threshold."""
        direction = {"char_embed_dim": 8, "hidden_size": 64, "sequence_length": 30,
                     "mini_batch": 4, "epochs": 1, "dropout": 0.0, "learning_rate": 5.0}
        cfg = write_config(tmp_path / "lm.yaml", {"lm": {
            "corpus": str(toy["lm_corpus"]), "seed": 5,
            "forward": direction, "backward": direction}})
        runner = "import sys; from histtag import cli; {}; sys.exit(cli.main(sys.argv[1:]))"
        for out, patch in (("retained", "pass"),
                           ("defaults", "cli.retain_freed_heap = lambda: None")):
            done = run_python(runner.format(patch), "lm", "train", "--config", cfg,
                              "--output-dir", out, cwd=tmp_path)
            assert done.returncode == 0, done.stderr
        for name in ("forward.bin", "backward.bin", "forward_log.json", "backward_log.json"):
            assert ((tmp_path / "retained" / name).read_bytes()
                    == (tmp_path / "defaults" / name).read_bytes()), name


FOOTPRINT = """
import json, os, sys
from histtag import cli
status = cli.main(sys.argv[1:])
maps = set()
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        maps = {line.split()[-1] for line in fh if "openblas" in line}
print(json.dumps({"status": status,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "openblas": sorted(os.path.basename(p) for p in maps)}))
"""


class TestFootprint:
    """histtag runs on numpy and PyYAML alone.  A fresh process that trains
    both LMs (and so runs ``nn.cross_entropy``) imports no scipy module,
    maps only numpy's OpenBLAS build, and records no scipy version."""

    def test_lm_train_imports_no_scipy(self, toy, tmp_path):
        cfg = write_config(tmp_path / "lm.yaml", {"lm": {
            **LM_SECTION, "corpus": str(toy["lm_corpus"]), "output_dir": "lm"}})
        done = run_python(FOOTPRINT, "lm", "train", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen["status"] == 0
        assert seen["scipy"] == []
        if os.path.exists("/proc/self/maps"):
            assert len(seen["openblas"]) == 1, seen["openblas"]
        manifest = json.loads((tmp_path / "lm" / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["versions"]) == {"histtag", "python", "numpy", "pyyaml"}


def every_section_doc(toy, tmp_path) -> dict:
    """A run config that ``smlm``, ``lm train`` and ``ner train`` all
    accept, at toy size, writing only under ``tmp_path / "out"``."""
    vocab = tmp_path / "vocab.txt"
    extract_char_vocab(read_plain(toy["lm_corpus"])).to_path(vocab)
    out = tmp_path / "out"
    return {
        "data": {"train": str(toy["train"]), "dev": str(toy["dev"]),
                 "test": str(toy["test"]), "lm_corpus": str(toy["lm_corpus"]),
                 "scheme": "iob2"},
        "vocab": {"path": str(vocab)},
        "smlm": {"output": str(out / "corrupted.txt")},
        "lm": {**copy.deepcopy(LM_SECTION), "output_dir": str(out / "lm")},
        "embeddings": [{"kind": "char_features", "embed_dim": 4, "hidden": 4}],
        "tagger": {"lstm_hidden": 4, "max_epochs": 1, "seed": 3},
        "eval": {"runs": 1, "output_dir": str(out / "ner")},
    }


WRONG_VALUES = [
    (["ner", "train"], ("tagger", "lstm_hidden"), 8.5, "tagger.lstm_hidden"),
    (["ner", "train"], ("tagger", "seed"), 1.7, "tagger.seed"),
    (["ner", "train"], ("tagger", "seed"), -1, "tagger: seed must be non-negative"),
    (["ner", "train"], ("tagger", "mini_batch"), True, "tagger.mini_batch"),
    (["lm", "train"], ("lm", "forward", "hidden_size"), 8.5, "lm.forward.hidden_size"),
    (["lm", "train"], ("lm", "forward", "mini_batch"), True, "lm.forward.mini_batch"),
    (["lm", "train"], ("lm", "seed"), "x", "lm.seed"),
    (["lm", "train"], ("lm", "seed"), -1, "lm.seed must be non-negative"),
    (["ner", "train"], ("data", "token_column"), "x", "data.token_column"),
    (["ner", "train"], ("eval", "runs"), "x", "eval.runs"),
    (["smlm"], ("smlm", "p_keep"), "0.9", "smlm.p_keep"),
    (["ner", "train"], ("embeddings", 0, "embed_dim"), 2.7, "embeddings[0].embed_dim"),
    (["ner", "train"], ("embeddings", 0, "hidden"), 0, "char_features hidden"),
    (["ner", "train"], ("embeddings", 0, "hidden"), -2, "char_features hidden"),
    (["ner", "train"], ("embeddings",), [], "need at least one embedding component"),
]


class TestWrongValues:
    @pytest.mark.parametrize(
        "command,path,value,named", WRONG_VALUES,
        ids=[f"{'.'.join(map(str, path))}={value!r}" for _, path, value, _ in WRONG_VALUES])
    def test_config_error_names_the_key(self, toy, tmp_path, capsys,
                                        command, path, value, named):
        doc = every_section_doc(toy, tmp_path)
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg = write_config(tmp_path / "c.yaml", doc)
        assert main([*command, "--config", cfg]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,named", [
        (["ner", "train"], "tagger: seed must be non-negative, got -1"),
        (["lm", "train"], "lm.seed must be non-negative, got -1")])
    def test_negative_seed_flag_writes_nothing(self, toy, tmp_path, capsys, command, named):
        """numpy rejects a negative seed only once training starts; the
        command rejects it before it reads a corpus or makes a directory."""
        cfg = write_config(tmp_path / "c.yaml", every_section_doc(toy, tmp_path))
        assert main([*command, "--config", cfg, "--seed", "-1"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_embeddings_mean_char_features(self, toy, tmp_path):
        doc = every_section_doc(toy, tmp_path)
        doc["embeddings"] = None
        assert main(["ner", "train", "--config", write_config(tmp_path / "c.yaml", doc)]) == 0
        manifest = json.loads((tmp_path / "out" / "ner" / "manifest.json").read_text())
        assert manifest["config"]["embeddings"] == [{"kind": "char_features"}]


@pytest.fixture(scope="module")
def lm_dir(toy, tmp_path_factory):
    """A forward and a backward LM trained on the toy LM corpus."""
    out = tmp_path_factory.mktemp("lms")
    cfg = write_config(out / "lm.yaml", {
        "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]), "output_dir": str(out)}})
    assert main(["lm", "train", "--config", cfg]) == 0
    return out


def stacked_config(path, data_dir, lm, out_dir, runs):
    """A run config over all three component kinds; ``data_dir`` holds the
    toy splits and a word-vector file."""
    (data_dir / "vectors.txt").write_text("Wien 0.5 -0.5\nGraz 0.25 1.0\n",
                                          encoding="utf-8")
    return write_config(path, {
        "data": {**{k: str(data_dir / f"{k}.conll") for k in ("train", "dev", "test")},
                 "scheme": "iob2"},
        "embeddings": [
            {"kind": "word_table", "path": str(data_dir / "vectors.txt")},
            {"kind": "char_features", "embed_dim": 4, "hidden": 4},
            {"kind": "contextual", "forward": str(lm / "forward.bin"),
             "backward": str(lm / "backward.bin")}],
        "tagger": {"lstm_hidden": 6, "learning_rate": 0.5, "max_epochs": 2, "seed": 3},
        "eval": {"runs": runs, "output_dir": str(out_dir)},
    })


class TestFrozenBlocksShared:
    def test_second_run_equals_a_separate_run_with_its_seed(self, toy, lm_dir, tmp_path):
        cfg = stacked_config(tmp_path / "ner.yaml", toy["train"].parent, lm_dir,
                             tmp_path / "two", runs=2)
        assert main(["ner", "train", "--config", cfg]) == 0
        assert main(["ner", "train", "--config", cfg, "--runs", "1", "--seed", "4",
                     "--output-dir", str(tmp_path / "one")]) == 0
        for name in ("model.bin", "predictions.conll", "training_log.json"):
            assert ((tmp_path / "two" / "run1" / name).read_bytes()
                    == (tmp_path / "one" / "run0" / name).read_bytes()), name

    def test_contextual_extraction_once_per_distinct_sentence(self, toy, lm_dir, tmp_path,
                                                              monkeypatch):
        calls = []
        extract = embed.ContextualEmbedder.forward

        def counting(self, sentences):
            calls.extend(tuple(s.texts()) for s in sentences)
            return extract(self, sentences)
        monkeypatch.setattr(embed.ContextualEmbedder, "forward", counting)
        cfg = stacked_config(tmp_path / "ner.yaml", toy["train"].parent, lm_dir,
                             tmp_path / "ner", runs=2)
        assert main(["ner", "train", "--config", cfg]) == 0
        distinct = {tuple(s.texts()) for split in ("train", "dev", "test")
                    for s in read_conll(toy[split], 0, 1, TagScheme.IOB2)}
        assert len(calls) == len(set(calls)) == len(distinct)


@pytest.fixture(scope="module")
def trained(toy, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    cfg = ner_config(out_dir, toy, out_dir / "ner",
                     max_epochs=6, learning_rate=1.0)
    assert main(["ner", "train", "--config", cfg, "--runs", "1"]) == 0
    return out_dir / "ner" / "run0" / "model.bin"


class TestPredictAndEval:
    def test_predict_then_eval_matches_report(self, toy, trained, tmp_path,
                                              capsys):
        pred = tmp_path / "pred.conll"
        assert main(["ner", "predict", "--model", str(trained),
                     "--input", str(toy["test"]), "--output",
                     str(pred)]) == 0
        capsys.readouterr()
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--predictions", str(pred),
                     "--output", str(report_path)]) == 0
        assert "micro" in capsys.readouterr().out
        cli_report = json.loads(report_path.read_text(encoding="utf-8"))
        stored = json.loads(
            (trained.parent / "report.json").read_text(encoding="utf-8"))
        assert cli_report["micro"]["f1"] == pytest.approx(stored["micro"]["f1"])

    def test_eval_gold_pred_pair(self, toy, tmp_path, capsys):
        assert main(["eval", "--gold", str(toy["test"]),
                     "--pred", str(toy["test"])]) == 0
        out = capsys.readouterr().out
        assert "micro" in out and "1.0000" in out

    def test_eval_gold_pred_token_mismatch_names_the_sentence(self, toy, tmp_path, capsys):
        blocks = toy["test"].read_text(encoding="utf-8").split("\n\n")
        blocks[1] = "Anders" + blocks[1][blocks[1].index(" "):]
        changed = tmp_path / "changed.conll"
        changed.write_text("\n\n".join(blocks), encoding="utf-8")
        assert main(["eval", "--gold", str(toy["test"]), "--pred", str(changed)]) == 1
        assert "sentence 1 " in capsys.readouterr().err

    def test_predict_reproduces_the_training_predictions(self, toy, trained, tmp_path):
        """The saved model tags the eval file as the trained model did."""
        pred = tmp_path / "pred.conll"
        assert main(["ner", "predict", "--model", str(trained),
                     "--input", str(toy["test"]), "--output", str(pred)]) == 0
        assert pred.read_bytes() == (trained.parent / "predictions.conll").read_bytes()

    def test_eval_requires_an_input(self):
        assert main(["eval"]) == 2

    def test_eval_rejects_conflicting_inputs(self, toy):
        assert main(["eval", "--predictions", str(toy["test"]),
                     "--gold", str(toy["test"]),
                     "--pred", str(toy["test"])]) == 2

    def test_predict_wrong_model_kind_is_runtime_error(self, toy, tmp_path):
        from histtag.serialization import save_tensors
        path = tmp_path / "wrong.bin"
        save_tensors(path, {"kind": "charlm"}, [])
        rc = main(["ner", "predict", "--model", str(path),
                   "--input", str(toy["test"]),
                   "--output", str(tmp_path / "p.conll")])
        assert rc == 1

    def test_predict_from_another_directory(self, toy, lm_dir, tmp_path, monkeypatch):
        """A model file's LM and vector references resolve against its own
        directory, wherever the command runs."""
        work = tmp_path / "w"
        (work / "out").mkdir(parents=True)
        shutil.copytree(toy["train"].parent, work / "data")
        shutil.copytree(lm_dir, work / "out" / "lm")
        monkeypatch.chdir(work)
        stacked_config(Path("ner.yaml"), Path("data"), Path("out/lm"), Path("out/ner"),
                       runs=1)
        assert main(["ner", "train", "--config", "ner.yaml"]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["ner", "predict", "--model", "w/out/ner/run0/model.bin",
                     "--input", "w/data/test.conll", "--output", "pred.conll"]) == 0
        assert (tmp_path / "pred.conll").is_file()


def files_under(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestParallelJobs:
    """``lm train``'s directions and ``ner train``'s runs go to one process
    per usable CPU; the artifacts are those of the serial run."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    def run_on(self, monkeypatch, cpus, work: Path, argv) -> int:
        """``main(argv)`` in ``work`` with ``cpus`` usable CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        work.mkdir(exist_ok=True)
        monkeypatch.chdir(work)
        return main(argv)

    def test_lm_train_and_ner_train_byte_identical_to_serial(self, toy, lm_dir, tmp_path,
                                                             monkeypatch, capsys):
        lm_cfg = write_config(tmp_path / "lm.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]), "output_dir": "lm"}})
        ner_cfg = stacked_config(tmp_path / "ner.yaml", toy["train"].parent, lm_dir,
                                 Path("ner"), runs=3)
        outputs = {}
        for cpus in (1, 2):
            work = tmp_path / f"cpus{cpus}"
            assert self.run_on(monkeypatch, cpus, work,
                               ["lm", "train", "--config", lm_cfg]) == 0
            assert self.run_on(monkeypatch, cpus, work,
                               ["ner", "train", "--config", ner_cfg]) == 0
            outputs[cpus] = (files_under(work), capsys.readouterr().out)
        files = outputs[1][0]
        assert {"lm/forward.bin", "lm/backward_log.json", "lm/manifest.json",
                "ner/run2/model.bin", "ner/summary.json", "ner/manifest.json"} <= set(files)
        assert outputs[2] == outputs[1]

    def test_runs_tag_several_tiers_as_in_the_serial_run(self, toy, lm_dir, tmp_path,
                                                         monkeypatch):
        """A run's ``predict`` calls run their jobs, one per length group,
        inline in the run's process, which for run 1 is a worker that may
        not fork."""
        monkeypatch.setattr(embed, "EXTRACT_CHARS", 80)
        test = read_conll(toy["test"], 0, 1, TagScheme.IOB2)
        assert len(length_groups([len(sentence_text(s)) for s in test],
                                 embed.EXTRACT_CHARS)) >= 2
        cfg = stacked_config(tmp_path / "ner.yaml", toy["train"].parent, lm_dir,
                             Path("ner"), runs=2)
        outputs = {}
        for cpus in (1, 2):
            work = tmp_path / f"cpus{cpus}"
            assert self.run_on(monkeypatch, cpus, work, ["ner", "train", "--config", cfg]) == 0
            outputs[cpus] = files_under(work)
        assert "ner/run1/predictions.conll" in outputs[1]
        assert outputs[2] == outputs[1]

    def test_diverging_directions_fail_as_in_the_serial_run(self, toy, tmp_path,
                                                            monkeypatch, capsys):
        cfg = write_config(tmp_path / "c.yaml", {
            "lm": {**LM_SECTION, "corpus": str(toy["lm_corpus"]), "output_dir": "lm"}})
        errs = []
        for cpus in (1, 2):
            # forked workers inherit the error state
            with np.errstate(over="ignore", invalid="ignore"):
                assert self.run_on(monkeypatch, cpus, tmp_path / f"cpus{cpus}",
                                   ["lm", "train", "--config", cfg,
                                    "--learning-rate", "1.7e308"]) == 1
            errs.append(capsys.readouterr().err)
        assert "error: lm training: non-finite gradient norm at epoch 1" in errs[0]
        assert errs[1] == errs[0]

    def test_run_whose_worker_exits_is_a_runtime_error(self, toy, tmp_path, monkeypatch,
                                                       capsys):
        train_ner = cli.train_ner

        def exiting(train, dev, config, embedder):
            if config.seed == 12:
                os._exit(3)
            return train_ner(train, dev, config, embedder)
        monkeypatch.setattr(cli, "train_ner", exiting)
        cfg = ner_config(tmp_path, toy, Path("ner"), max_epochs=1)
        argv = ["ner", "train", "--config", cfg]
        assert self.run_on(monkeypatch, 2, tmp_path / "w", argv) == 1
        assert ("error: job 1 has no result: its worker process exited with status 3"
                in capsys.readouterr().err)
        assert not (tmp_path / "w" / "ner" / "manifest.json").exists()

