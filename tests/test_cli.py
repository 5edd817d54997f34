"""End-to-end CLI tests: exit codes, JSON determinism, pipeline wiring."""

import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lnfold import cli, fixtures, fold_apply, verify
from lnfold.cli import main
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import WeightStore, load_model, model_hash, save_model
from lnfold.jsonutil import canonical_dumps


@pytest.fixture()
def models(tmp_path):
    paths = {}
    for name in ("post_ln_transformer", "pre_ln_transformer", "concat_then_norm", "fanout_trap"):
        g, w = fixtures.ALL_FIXTURES[name]()
        topo = str(tmp_path / f"{name}.json")
        blob = str(tmp_path / f"{name}.bin")
        save_model(g, w, topo, blob)
        paths[name] = (topo, blob)
    return paths


class TestAnalyze:
    def test_pre_ln_strict_summary(self, models, tmp_path, capsys):
        topo, blob = models["pre_ln_transformer"]
        out = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "LN=5" in err and "foldable=0" in err
        doc = json.loads(Path(out).read_text())
        assert doc["counts"]["strict"] == 0

    def test_pre_ln_practical_summary(self, models, tmp_path, capsys):
        topo, blob = models["pre_ln_transformer"]
        out = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--practical", "--out", out]) == 0
        err = capsys.readouterr().err
        assert "foldable=5" in err and "insertions=1" in err

    def test_post_ln_all_strict(self, models, tmp_path, capsys):
        topo, blob = models["post_ln_transformer"]
        assert main(["analyze", topo, blob, "--out", str(tmp_path / "r.json")]) == 0
        err = capsys.readouterr().err
        assert "LN=2" in err and "foldable=2" in err

    def test_missing_model_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json"), str(tmp_path / "nope.bin")]) == 1

    def test_byte_identical_reports(self, models, tmp_path, capsys):
        topo, blob = models["post_ln_transformer"]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["analyze", topo, blob, "--out", a])
        main(["analyze", topo, blob, "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestFold:
    def _analyze(self, models, tmp_path, name, *flags):
        topo, blob = models[name]
        rep = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--out", rep, *flags]) == 0
        return topo, blob, rep

    def test_fold_writes_model(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        out = str(tmp_path / "folded")
        assert main(["fold", topo, blob, "--report", rep, "--out", out]) == 0
        g, _w = load_model(out + ".json", out + ".bin")
        kinds = {n.kind for n in g.nodes.values()}
        assert "RMSNorm" in kinds and "LayerNorm" not in kinds

    def test_dry_run_writes_nothing(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        before = set(os.listdir(tmp_path))
        assert main(["fold", topo, blob, "--report", rep, "--dry-run"]) == 0
        assert set(os.listdir(tmp_path)) == before
        assert "-> RMSNorm" in capsys.readouterr().out

    def test_dry_run_shows_refused_plans(self, models, tmp_path, capsys):
        # a dry run must display what a refused fold would have changed
        topo, blob, rep = self._analyze(models, tmp_path, "fanout_trap")
        assert main(["fold", topo, blob, "--report", rep, "--dry-run"]) == 0
        assert "-> RMSNorm" in capsys.readouterr().out
        topo, blob, rep = self._analyze(models, tmp_path, "pre_ln_transformer", "--practical")
        assert main(["fold", topo, blob, "--report", rep, "--dry-run"]) == 0
        assert "insert AuxiliaryCentering" in capsys.readouterr().out

    def test_format_1_report_refused(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        _edit_topology(rep, lambda doc: dict(doc, format_version=1))
        capsys.readouterr()
        assert main(["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")]) == 1
        assert "unsupported report format_version 1" in capsys.readouterr().err

    def test_stale_report_refused(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        g, w = load_model(topo, blob)
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["ffn2.weight"][0, 0] += 1.0
        save_model(g, WeightStore(arrays), topo, blob)
        assert main(["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")]) == 1

    @pytest.mark.parametrize("flags", [["--out", "f"], [], ["--dry-run"]])
    def test_stale_report_message(self, models, tmp_path, capsys, flags):
        # The hash check comes first whichever of the CLI or apply_fold makes it.
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        stale = json.loads(Path(rep).read_text())["model_hash"]
        other_topo, other_blob = models["concat_then_norm"]
        other = model_hash(*load_model(other_topo, other_blob))
        capsys.readouterr()
        flags = [str(tmp_path / f) if f == "f" else f for f in flags]
        assert main(["fold", other_topo, other_blob, "--report", rep, *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: report was produced for model {stale[:12]}..., "
            f"but this model hashes to {other[:12]}...\n"
        )
        assert not os.path.exists(str(tmp_path / "f.json"))

    @pytest.mark.parametrize("flags", [["--out", "f"], [], ["--dry-run"]])
    def test_fold_hashes_model_once(self, models, tmp_path, monkeypatch, flags):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        calls = []
        for module in (cli, fold_apply):
            original = module.model_hash
            monkeypatch.setattr(module, "model_hash",
                                lambda g, w, original=original: calls.append(1) or original(g, w))
        flags = [str(tmp_path / f) if f == "f" else f for f in flags]
        main(["fold", topo, blob, "--report", rep, *flags])
        assert len(calls) == 1

    def test_unsafe_model_refused(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "fanout_trap")
        assert main(["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")]) == 1

    def test_practical_needs_flag(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "pre_ln_transformer", "--practical")
        out = str(tmp_path / "folded")
        assert main(["fold", topo, blob, "--report", rep, "--out", out]) == 1
        assert main(["fold", topo, blob, "--report", rep, "--out", out, "--practical"]) == 0


def _spec(**fields):
    def edit(doc):
        doc["targets"][0]["spec"].update(fields)
        return doc
    return edit


def _insert_after_ghost(doc):
    doc["insertions"].append({"after": "ghost", "node_id": "center_after_ghost",
                              "edges": [["ghost", "center_after_ghost", 0]], "rescues": ["ln"]})
    return doc


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _insertion_edges(edges):
    def edit(doc):
        doc["insertions"][0]["edges"] = edges
        return doc
    return edit


_FOLD, _DRY_RUN = ["--out", "f", "--practical"], ["--dry-run"]
_FOLD_FLAGS = pytest.mark.parametrize("flags", [_FOLD, _DRY_RUN], ids=["out", "dry_run"])

# Edits of a linear_then_norm report, and what the refusal says.
_LINEAR_THEN_NORM_EDITS = pytest.mark.parametrize("edit, message", [
    (_spec(family="conv_out_channels"), "centering target 'lin' needs spec"),
    (_spec(family="recurrent_both"), "centering target 'lin' needs spec"),
    (_spec(family="grouped_columns", groups=3), "centering target 'lin' needs spec"),
    (_spec(family="grouped_columns", groups=2), "centering target 'lin' needs spec"),
    (lambda doc: doc["targets"][0].update(node="ln") or doc,
     "report centers 'ln', which this fold does not center"),
    (_spec(target="ln.weight"), "centering target 'lin' needs spec"),
    (_insert_after_ghost, "insertion after unknown node(s) 'ghost'"),
    (_set("targets", []), "centering target 'lin' needs spec"),
    (_set("foldable", ["ln", "ln"]), "report lists 'ln' more than once"),
], ids=["conv_family", "recurrent_family", "groups_3", "groups_2", "target_node_ln",
        "spec_target_ln_weight", "insertion_after_ghost", "dropped_target",
        "duplicated_foldable"])


class TestMalformedReport:
    """Edits that keep the model hash valid but do not describe a fold of
    this model: each is refused with a message, never a traceback, by a
    fold and by a dry run alike."""

    def _fold(self, tmp_path, capsys, model, analyze_flags, edit, flags):
        """Analyze model, edit the report, fold it; the fold's stderr."""
        topo, blob = _save(tmp_path, "m", *model)
        rep = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--out", rep, *analyze_flags]) == 0
        _edit_topology(rep, edit)
        capsys.readouterr()
        out = str(tmp_path / "f")
        flags = [out if f == "f" else f for f in flags]
        assert main(["fold", topo, blob, "--report", rep, *flags]) == 1
        assert not os.path.exists(out + ".json") and not os.path.exists(out + ".bin")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @_LINEAR_THEN_NORM_EDITS
    def test_fold_exits_1(self, tmp_path, capsys, edit, message):
        assert message in self._fold(tmp_path, capsys, fixtures.linear_then_norm(), [], edit, _FOLD)

    @_LINEAR_THEN_NORM_EDITS
    def test_dry_run_exits_1(self, tmp_path, capsys, edit, message):
        assert message in self._fold(tmp_path, capsys, fixtures.linear_then_norm(), [], edit, _DRY_RUN)

    @_FOLD_FLAGS
    @pytest.mark.parametrize("name, analyze_flags, edit, message", [
        ("relu_then_norm", [], _set("foldable", ["ln"]), "LayerNorm 'ln' cannot fold: blocked by act"),
        ("fanout_trap", [], _set("safety", {"safe": True, "affected": []}),
         "report safety differs from this fold's: {'safe': False, 'affected': ['act']}"),
        ("pre_ln_transformer", ["--practical"], _set("insertions", []),
         "cannot fold: blocked by embed"),
        ("pre_ln_transformer", ["--practical"], _insertion_edges([]),
         "insertion after 'embed' should be"),
        ("linear_then_norm", [], _set("mode", {"anything": [1, 2]}),
         "report mode must be 'strict' or 'practical', got {'anything': [1, 2]}"),
        ("pre_ln_transformer", ["--practical"], _set("mode", "strict"),
         "strict report plans explicit centering insertions"),
    ], ids=["blocked_ln_listed", "forged_safety", "dropped_insertion", "emptied_insertion_edges",
            "unknown_mode", "strict_mode_with_insertions"])
    def test_tampered_decision_exits_1(self, tmp_path, capsys, name, analyze_flags, edit, message,
                                       flags):
        model = fixtures.ALL_FIXTURES[name]()
        assert message in self._fold(tmp_path, capsys, model, analyze_flags, edit, flags)

    @_FOLD_FLAGS
    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        _set("foldable", None),
        _set("targets", "x"),
        _set("safety", None),
        _set("entries", 5),
        _set("insertions", [{"after": "lin", "node_id": "c", "edges": [[1]], "rescues": []}]),
        _set("foldable", [["ln"]]),
    ], ids=["top_level_list", "foldable_null", "targets_string", "safety_null", "entries_int",
            "insertion_edge_short", "foldable_id_list"])
    def test_malformed_json_exits_1(self, tmp_path, capsys, edit, flags):
        err = self._fold(tmp_path, capsys, fixtures.linear_then_norm(), [], edit, flags)
        assert err.startswith("error: cannot read report: ")


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["analyze", "fold", "pipeline"])
    def test_exits_1_with_message(self, models, tmp_path, capsys, command):
        topo, blob = models["post_ln_transformer"]
        rep, missing = str(tmp_path / "rep.json"), str(tmp_path / "missing")
        assert main(["analyze", topo, blob, "--out", rep]) == 0
        argv, target = {
            "analyze": (["analyze", topo, blob, "--out", os.path.join(missing, "r.json")],
                        os.path.join(missing, "r.json")),
            "fold": (["fold", topo, blob, "--report", rep, "--out", os.path.join(missing, "f")],
                     os.path.join(missing, "f.json")),
            "pipeline": (["pipeline", topo, blob, "--out-dir", rep], rep),  # a file, not a directory
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["fold", "pipeline"])
    def test_failed_weights_write_leaves_no_topology(self, models, tmp_path, capsys, command):
        topo, blob = models["post_ln_transformer"]
        rep, out_dir = str(tmp_path / "rep.json"), tmp_path / "pipe"
        assert main(["analyze", topo, blob, "--out", rep]) == 0
        prefix = {"fold": tmp_path / "f", "pipeline": out_dir / "folded"}[command]
        os.makedirs(f"{prefix}.bin")  # a directory where the weights file goes
        argv = {"fold": ["fold", topo, blob, "--report", rep, "--out", str(prefix)],
                "pipeline": ["pipeline", topo, blob, "--out-dir", str(out_dir)]}[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {prefix}.bin: ") and "Traceback" not in err
        assert not os.path.exists(f"{prefix}.json")


def _extra_edge(doc):
    doc["edges"].append(["x", "ghost", 0])
    return doc


class TestVerifyCmd:
    @pytest.mark.parametrize("edit, message", [
        (_extra_edge, "edge references unknown destination 'ghost'"),
        (lambda doc: _node(doc, "ln").update(kind="Concat") or doc, "node 'ln': Concat needs arity >= 2"),
    ], ids=["edge_to_unknown_node", "layer_norm_retyped_to_concat"])
    def test_invalid_folded_model_exits_1(self, tmp_path, capsys, edit, message):
        g, w = fixtures.linear_then_norm()
        topo, blob = _save(tmp_path, "orig", g, w)
        folded = _save(tmp_path, "folded", *fold_apply.apply_fold(g, w, detect_foldable(g, w)))
        _edit_topology(folded[0], edit)
        capsys.readouterr()
        assert main(["verify", topo, blob, *folded, "--trials", "3", "--grad"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: verification could not run: ") and message in err
        assert "Traceback" not in err

    def test_pass_and_fail_exit_codes(self, models, tmp_path, capsys):
        topo, blob, rep = TestFold()._analyze(models, tmp_path, "post_ln_transformer")
        out = str(tmp_path / "folded")
        main(["fold", topo, blob, "--report", rep, "--out", out])
        assert main(["verify", topo, blob, out + ".json", out + ".bin",
                     "--trials", "20", "--grad"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["forward"]["pass"] and doc["gradients"]["pass"]

        # corrupt one folded weight: verification must fail with exit 2
        g, w = load_model(out + ".json", out + ".bin")
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["ffn2.weight"][0, 0] += 1e-3
        save_model(g, WeightStore(arrays), out + ".json", out + ".bin")
        assert main(["verify", topo, blob, out + ".json", out + ".bin", "--trials", "5"]) == 2

    def test_zero_length_input_verifies(self, tmp_path, capsys):
        # Validation accepts an empty axis; differences over no elements are 0.
        b = fixtures._Builder(0)
        b.output(b.layer_norm("ln", b.linear("lin", b.input("x", (0, 4)), 4, 4), 4))
        topo, blob = _save(tmp_path, "empty", *b.build())
        assert main(["analyze", topo, blob]) == 0
        capsys.readouterr()
        assert main(["verify", topo, blob, topo, blob, "--grad"]) == 0
        doc = _last_json(capsys)
        for part in ("forward", "gradients"):
            assert (doc[part]["max_abs_forward_diff"], doc[part]["pass"]) == (0.0, True)
        assert doc["gradients"]["max_abs_grad_diff"] == 0.0

    def test_embedding_index_out_of_range_exits_1(self, tmp_path, capsys):
        g, w = fixtures.pre_ln_transformer(blocks=1)
        topo, blob = _save(tmp_path, "orig", g, w)
        _edit_topology(topo, lambda doc: doc["nodes"][0]["attrs"].update(high=100) or doc)
        assert main(["verify", topo, blob, topo, blob, "--trials", "3"]) == 1
        assert "embedding indices must lie in [0, 13)" in capsys.readouterr().err

    def _folded_linear_then_norm(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        return (*_save(tmp_path, "orig", g, w),
                *_save(tmp_path, "folded", *fold_apply.apply_fold(g, w, detect_foldable(g, w))))

    @pytest.mark.parametrize("command, flags", [
        ("verify", ["--trials", "0"]),
        ("verify", ["--trials", "-1"]),
        ("verify", ["--grad", "--grad-trials", "0"]),
        ("pipeline", ["--trials", "0"]),
    ], ids=["verify_trials_0", "verify_trials_negative", "grad_trials_0", "pipeline_trials_0"])
    def test_no_trials_exits_1(self, tmp_path, capsys, monkeypatch, command, flags):
        orig_topo, orig_blob, *folded = self._folded_linear_then_norm(tmp_path)
        models = [orig_topo, orig_blob]
        if command == "verify":
            models += folded
        else:
            flags = flags + ["--out-dir", str(tmp_path / "pipe")]
        forwards = []
        monkeypatch.setattr(verify, "forward", lambda *args, **kwargs: forwards.append(args))
        capsys.readouterr()
        assert main([command, *models, *flags]) == 1
        captured = capsys.readouterr()
        assert '"pass"' not in captured.out
        assert "error: verification could not run: trials must be >= 1" in captured.err
        assert "Traceback" not in captured.err
        # The count is refused before any work: no forward, no files.
        assert forwards == []
        assert not (tmp_path / "pipe").exists()

    @pytest.mark.parametrize("command", ["verify", "pipeline"])
    @pytest.mark.parametrize("flags, seed_env, message", [
        (["--tol", "nan"], None, "tol must be a finite number >= 0, got nan"),
        (["--tol", "inf"], None, "tol must be a finite number >= 0, got inf"),
        (["--tol", "1e400"], None, "tol must be a finite number >= 0, got inf"),
        (["--tol", "-1"], None, "tol must be a finite number >= 0, got -1.0"),
        (["--seed", "-1"], None, "seed must be >= 0, got -1"),
        ([], "-1", "seed must be >= 0, got -1"),
    ], ids=["tol_nan", "tol_inf", "tol_overflow", "tol_negative", "seed_negative", "env_seed_negative"])
    def test_bad_tol_or_seed_exits_1(self, tmp_path, capsys, monkeypatch, command, flags, seed_env, message):
        models = list(self._folded_linear_then_norm(tmp_path))
        if command == "pipeline":
            models, flags = models[:2], flags + ["--out-dir", str(tmp_path / "pipe")]
        if seed_env is not None:
            monkeypatch.setenv("LNFOLD_SEED", seed_env)
        before = sorted(os.listdir(tmp_path))
        loads = []
        monkeypatch.setattr(cli, "load_model", lambda *args: loads.append(args))
        capsys.readouterr()
        assert main([command, *models, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verification could not run: {message}\n"
        # Refused before any model is loaded or any file is written.
        assert loads == [] and sorted(os.listdir(tmp_path)) == before

    def test_renamed_centering_target_exits_1(self, tmp_path, capsys):
        def rename(doc):
            _node(doc, "lin")["id"] = "lin2"
            doc["edges"] = [["lin2" if e[0] == "lin" else e[0], "lin2" if e[1] == "lin" else e[1], e[2]]
                            for e in doc["edges"]]
            return doc

        orig_topo, orig_blob, folded_topo, folded_blob = self._folded_linear_then_norm(tmp_path)
        _edit_topology(folded_topo, rename)
        capsys.readouterr()
        assert main(["verify", orig_topo, orig_blob, folded_topo, folded_blob, "--trials", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", orig_topo, orig_blob, folded_topo, folded_blob,
                     "--trials", "3", "--grad"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: verification could not run: centered node 'lin'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("high, code", [(2, 0), (3, 1)])
    def test_missing_high_means_two(self, tmp_path, capsys, high, code):
        g, w = fixtures.pre_ln_transformer(blocks=1)
        topo, blob = _save(tmp_path, "orig", g, w)
        copy_topo, copy_blob = _save(tmp_path, "copy", g, w)
        _edit_topology(topo, lambda doc: _node(doc, "tokens")["attrs"].pop("high") and doc)
        _edit_topology(copy_topo, lambda doc: _node(doc, "tokens")["attrs"].update(high=high) or doc)
        capsys.readouterr()
        assert main(["verify", topo, blob, copy_topo, copy_blob, "--trials", "3", "--grad"]) == code
        err = capsys.readouterr().err
        assert code == 0 or err.startswith("error: verification could not run: models do not share")
        assert "Traceback" not in err


def _dead_branch_graph():
    """Centering emb rescues ln1 and ln2, whose other leaves lin1 and lin2
    are centering targets; the ReLU it would also perturb reaches no output."""
    b = fixtures._Builder(0)
    emb = b.embedding("emb", b.input("tokens", (3,), integer=True, high=7), 7, 6)
    x = b.input("x", (3, 4))
    lin1, lin2 = b.linear("lin1", x, 6, 4), b.linear("lin2", x, 6, 4)
    b.output(b.layer_norm("ln1", b.simple("add1", "ResidualAdd", (emb, lin1)), 6))
    scaled = b.simple("sc", "ScalarScale", emb, {"scale": 0.5})
    b.output(b.layer_norm("ln2", b.simple("add2", "ResidualAdd", (scaled, lin2)), 6))
    b.simple("act", "ReLU", emb)
    return b.build()


def _centering_node_graph():
    """lin -> aux -> {ln, ReLU act}: folding ln moves nothing act reads."""
    b = fixtures._Builder(0)
    aux = b.simple("aux", "AuxiliaryCentering", b.linear("lin", b.input("x", (4,)), 5, 4))
    b.output(b.layer_norm("ln", aux, 5))
    b.output(b.simple("act", "ReLU", aux))
    return b.build()


class TestFoldThenVerifyGrad:
    # The dead-branch fold keeps a plan that strict safety would drop, and
    # verify --grad must proxy the targets of what was folded. The
    # centering-node graph is safe, so it folds and verifies.
    @pytest.mark.parametrize("build, analyze_flags, fold_flags, safe", [
        (_dead_branch_graph, ["--practical", "--no-strict-safety"], ["--practical"], False),
        (_centering_node_graph, [], [], True),
        (_centering_node_graph, ["--practical"], ["--practical"], True),
    ], ids=["dead_branch_unsafe_plan", "centering_node_strict", "centering_node_practical"])
    def test_analyze_fold_verify_grad_exits_0(self, tmp_path, capsys, build,
                                               analyze_flags, fold_flags, safe):
        topo, blob = _save(tmp_path, "orig", *build())
        rep, out = str(tmp_path / "rep.json"), str(tmp_path / "folded")
        assert main(["analyze", topo, blob, "--out", rep] + analyze_flags) == 0
        with open(rep) as fh:
            assert json.load(fh)["safety"]["safe"] is safe
        assert main(["fold", topo, blob, "--report", rep, "--out", out] + fold_flags) == 0
        capsys.readouterr()
        assert main(["verify", topo, blob, out + ".json", out + ".bin", "--grad"]) == 0
        doc = _last_json(capsys)
        assert doc["gradients"]["max_abs_grad_diff"] <= 1e-9


def _save(tmp_path, stem, g, w):
    topo, blob = str(tmp_path / f"{stem}.json"), str(tmp_path / f"{stem}.bin")
    save_model(g, w, topo, blob)
    return topo, blob


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def wide_pair(tmp_path_factory):
    """A 1.19 M-parameter model and its practical fold, saved: big enough
    that verify --grad runs its two checks side by side."""
    tmp = tmp_path_factory.mktemp("wide")
    g, w = fixtures.pre_ln_transformer(d=256, hidden=1024, seq=32, blocks=2)
    folded = fold_apply.apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
    return (*_save(tmp, "orig", g, w), *_save(tmp, "folded", *folded))


_FEW_TRIALS = ["--grad", "--trials", "3", "--grad-trials", "1", "--seed", "3"]


def _usable_cpus(monkeypatch, cpus, affinity=True):
    """Make the process see this many usable CPUs, through os.sched_getaffinity
    or, with affinity=False, through os.cpu_count on a platform without it."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestOverlappedChecks:
    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        # The checks overlap only on a second CPU; give every case one.
        _usable_cpus(monkeypatch, 2)

    def test_only_large_models_overlap(self, wide_pair):
        assert verify.checks_overlap(load_model(*wide_pair[:2])[1])
        assert not verify.checks_overlap(fixtures.linear_then_norm()[1])

    @pytest.mark.parametrize("affinity, cpus", [(True, 1), (True, 2), (False, 1), (False, 2), (False, None)],
                             ids=["affinity_1", "affinity_2", "cpu_count_1", "cpu_count_2", "cpu_count_unknown"])
    def test_only_several_cpus_overlap(self, wide_pair, monkeypatch, affinity, cpus):
        _usable_cpus(monkeypatch, cpus, affinity)
        assert verify.checks_overlap(load_model(*wide_pair[:2])[1]) is (cpus == 2)

    def test_one_cpu_runs_the_checks_in_turn(self, wide_pair, capsys, monkeypatch):
        _usable_cpus(monkeypatch, 1)
        ran_on = []

        def recording(*args, **kwargs):
            ran_on.append(threading.current_thread())
            return real_forward(*args, **kwargs)

        real_forward = cli.verify_forward
        monkeypatch.setattr(cli, "verify_forward", recording)
        assert main(["verify", *wide_pair, *_FEW_TRIALS]) == 0
        assert ran_on == [threading.main_thread()]

    def test_output_equals_the_checks_run_in_turn(self, wide_pair, capsys):
        gA, wA = load_model(*wide_pair[:2])
        gB, wB = load_model(*wide_pair[2:])
        expected = {
            "forward": verify.verify_forward(gA, wA, gB, wB, trials=3, seed=3).to_json(),
            "gradients": verify.verify_gradients(gA, wA, gB, wB, trials=1, seed=3).to_json(),
        }
        capsys.readouterr()
        threads = threading.active_count()
        # Frequent thread switches, so the two checks interleave finely while
        # they fill the cold caches of the graphs they share.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["verify", *wide_pair, *_FEW_TRIALS]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert capsys.readouterr().out == canonical_dumps(expected) + "\n"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("large", [True, False], ids=["wide", "linear_then_norm"])
    def test_forward_check_thread(self, wide_pair, tmp_path, capsys, monkeypatch, large):
        paths = wide_pair if large else TestVerifyCmd()._folded_linear_then_norm(tmp_path)
        ran_on = {}

        def recording(check, original):
            def run(*args, **kwargs):
                ran_on[check] = threading.current_thread()
                return original(*args, **kwargs)
            return run

        monkeypatch.setattr(cli, "verify_forward", recording("forward", cli.verify_forward))
        monkeypatch.setattr(cli, "verify_gradients", recording("gradients", cli.verify_gradients))
        threads = threading.active_count()
        assert main(["verify", *paths, *_FEW_TRIALS]) == 0
        assert threading.active_count() == threads
        assert ran_on["gradients"] is threading.main_thread()
        assert (ran_on["forward"] is not threading.main_thread()) is large

    @pytest.mark.parametrize("failing, message", [
        ({"forward"}, "forward check broke"),
        ({"gradients"}, "gradient check broke"),
        ({"forward", "gradients"}, "forward check broke"),
    ], ids=["forward", "gradients", "both"])
    def test_failed_check_exits_1(self, wide_pair, capsys, monkeypatch, failing, message):
        # The gradient check ends first, so when both fail the forward
        # check's failure has to win by order, not by time.
        gradient_done = threading.Event()

        def forward_check(*args, **kwargs):
            gradient_done.wait(timeout=10)
            if "forward" in failing:
                raise ValueError("forward check broke")
            return real_forward(*args, **kwargs)

        def gradient_check(*args, **kwargs):
            gradient_done.set()
            if "gradients" in failing:
                raise ValueError("gradient check broke")
            return real_gradients(*args, **kwargs)

        real_forward, real_gradients = cli.verify_forward, cli.verify_gradients
        monkeypatch.setattr(cli, "verify_forward", forward_check)
        monkeypatch.setattr(cli, "verify_gradients", gradient_check)
        capsys.readouterr()
        threads = threading.active_count()
        assert main(["verify", *wide_pair, *_FEW_TRIALS]) == 1
        assert threading.active_count() == threads
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verification could not run: {message}\n"


class TestNonFiniteCmd:
    def test_verify_nan_folded_weight_exits_2(self, tmp_path, capsys):
        g, w = fixtures.linear_then_norm()
        fg, fw = fold_apply.apply_fold(g, w, detect_foldable(g, w))
        arrays = {k: v.copy() for k, v in fw.items()}
        arrays["lin.weight"][0, 0] = np.nan
        topo, blob = _save(tmp_path, "orig", g, w)
        ftopo, fblob = _save(tmp_path, "folded", fg, WeightStore(arrays))
        assert main(["verify", topo, blob, ftopo, fblob, "--grad"]) == 2
        doc = _last_json(capsys)
        for part in ("forward", "gradients"):
            assert doc[part]["max_abs_forward_diff"] is None
            assert doc[part]["pass"] is False

    def test_pipeline_nan_weight_exits_2(self, tmp_path, capsys):
        g, w = fixtures.linear_then_norm()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["lin.weight"][0, 0] = np.nan
        topo, blob = _save(tmp_path, "nan", g, WeightStore(arrays))
        assert main(["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe")]) == 2
        doc = _last_json(capsys)
        assert (doc["forward"]["max_abs_forward_diff"], doc["forward"]["pass"]) == (None, False)


class TestDtypeTolerance:
    def _f32_post_ln(self, tmp_path):
        g, w = fixtures.post_ln_transformer()
        return _save(tmp_path, "post_ln_f32", g,
                     WeightStore({k: v.astype(np.float32) for k, v in w.items()}))

    def test_f32_pipeline_passes_at_default(self, tmp_path, capsys):
        topo, blob = self._f32_post_ln(tmp_path)
        assert main(["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe")]) == 0
        assert _last_json(capsys)["forward"]["tol"] == 1e-5

    def test_f32_pipeline_explicit_tol_still_fails(self, tmp_path, capsys):
        topo, blob = self._f32_post_ln(tmp_path)
        assert main(["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe"),
                     "--tol", "1e-9"]) == 2
        assert _last_json(capsys)["forward"]["tol"] == 1e-9

    def test_f64_verify_default_stays_1e_9(self, models, tmp_path, capsys):
        topo, blob = models["post_ln_transformer"]
        assert main(["verify", topo, blob, topo, blob, "--trials", "3", "--grad"]) == 0
        doc = _last_json(capsys)
        assert doc["forward"]["tol"] == doc["gradients"]["tol"] == 1e-9


def _edit_topology(topo, edit):
    with open(topo, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = edit(doc)
    with open(topo, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _drop_kind(doc):
    del doc["nodes"][1]["kind"]
    return doc


def _drop_id(doc):
    del doc["nodes"][0]["id"]
    return doc


def _short_edge(doc):
    doc["edges"][0] = doc["edges"][0][:2]
    return doc


def _overlap(doc):
    first, second = doc["weights_manifest"][:2]
    second["offset"] = first["offset"] + 8
    return doc


def _manifest_without_dtype(doc):
    del doc["weights_manifest"][0]["dtype"]
    return doc


def _manifest_entry_list(doc):
    doc["weights_manifest"][0] = list(doc["weights_manifest"][0].values())
    return doc


def _manifest_shape_text(doc):
    doc["weights_manifest"][0]["shape"] = ["four"]
    return doc


def _attrs_list(doc):
    doc["nodes"][0]["attrs"] = [["shape", [6]]]
    return doc


def _node(doc, node_id):
    return next(n for n in doc["nodes"] if n["id"] == node_id)


def _set_attr(node_id, key, value):
    def edit(doc):
        _node(doc, node_id)["attrs"][key] = value
        return doc
    return edit


def _duplicate_node(doc):
    doc["nodes"].append(dict(doc["nodes"][1]))
    return doc


def _linear_without_params(doc):
    _node(doc, "ffn1")["params"] = []
    return doc


class TestMalformedTopology:
    @pytest.mark.parametrize("edit, message", [
        (_drop_kind, "needs an 'id' and a 'kind'"),
        (_drop_id, "needs an 'id' and a 'kind'"),
        (_short_edge, "is not [src, dst, slot]"),
        (lambda doc: [doc], "must be a JSON object, got list"),
        (_overlap, "overlap parameter"),
        (_manifest_without_dtype, "needs a name, a dtype, an integer shape"),
        (_manifest_entry_list, "needs a name, a dtype, an integer shape"),
        (_manifest_shape_text, "needs a name, a dtype, an integer shape"),
        (_attrs_list, "'attrs' must be an object"),
        (_duplicate_node, "duplicate node id 'lin_in'"),
        (_set_attr("ln1", "eps", float("nan")), "topology holds NaN"),
        (_set_attr("ln1", "eps", float("inf")), "topology holds Infinity"),
        (_set_attr("act", "slope", float("-inf")), "topology holds -Infinity"),
    ], ids=["node_without_kind", "node_without_id", "short_edge", "top_level_list",
            "overlapping_manifest", "manifest_without_dtype", "manifest_entry_list",
            "manifest_shape_not_integer", "attrs_not_object", "duplicate_node_id",
            "nan_attr", "infinite_attr", "minus_infinite_attr_on_relu"])
    def test_exits_1_with_message(self, models, tmp_path, capsys, edit, message):
        topo, blob = models["post_ln_transformer"]
        _edit_topology(topo, edit)
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load model: ") and message in err

    @pytest.mark.parametrize("command", ["analyze", "fold", "verify", "pipeline"])
    def test_non_finite_constant_is_refused_by_every_command(self, models, tmp_path, capsys, command):
        topo, blob = models["post_ln_transformer"]
        rep = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--out", rep]) == 0
        _edit_topology(topo, _set_attr("ln1", "eps", float("nan")))
        argv = {"analyze": ["analyze", topo, blob],
                "fold": ["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")],
                "verify": ["verify", topo, blob, topo, blob, "--trials", "3"],
                "pipeline": ["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe")]}[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load model: topology holds NaN") and "Traceback" not in err

    @pytest.mark.parametrize("name, edit, message", [
        ("post_ln_transformer", _linear_without_params, "Linear takes 1..2 params, got 0"),
        ("recurrent_then_norm",
         lambda doc: dict(doc, edges=[e for e in doc["edges"] if e[0] != "h_prev"]),
         "RecurrentCell arity must be 2, got 1"),
    ], ids=["linear_without_params", "unary_recurrent_cell"])
    def test_short_layout_exits_1(self, tmp_path, capsys, name, edit, message):
        topo, blob = _save(tmp_path, name, *fixtures.ALL_FIXTURES[name]())
        _edit_topology(topo, edit)
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model failed validation: ") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: _node(doc, "tokens")["attrs"].pop("integer") and doc,
         "embedding indices must come from an integer Input; Input 'tokens' is not one"),
        (lambda doc: _node(doc, "tokens")["attrs"].update(high=100) or doc,
         "embedding indices must lie in [0, 13), but Input 'tokens' draws them below high=100"),
        # An integer Input draws from [0, high), which is empty below high=1.
        (lambda doc: _node(doc, "tokens")["attrs"].update(high=0) or doc,
         "node 'tokens': attr 'high' must be >= 1 on an integer Input, got 0"),
    ], ids=["float_indices", "indices_past_table", "no_indices_to_draw"])
    def test_embedding_input_exits_1(self, models, tmp_path, capsys, edit, message):
        topo, blob = models["pre_ln_transformer"]
        _edit_topology(topo, edit)
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model failed validation: ") and message in err


class TestFlopsCmd:
    def test_naive_table(self, capsys):
        assert main(["flops", "--d", "8", "--variant", "naive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["layer_norm"]["adds"] == 40
        assert doc["rms_norm"]["adds"] == 8
        assert doc["saving_fraction"] == pytest.approx(0.4)

    def test_welford_table(self, capsys):
        assert main(["flops", "--d", "64", "--variant", "welford", "--groups", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["layer_norm"]["adds"], doc["layer_norm"]["muls"], doc["layer_norm"]["divs"]) == (448, 220, 64)
        assert (doc["rms_norm"]["adds"], doc["rms_norm"]["muls"], doc["rms_norm"]["divs"]) == (64, 192, 0)

    def test_invalid_d(self, capsys):
        assert main(["flops", "--d", "0"]) == 1


class TestPipeline:
    def test_end_to_end(self, models, tmp_path, capsys):
        topo, blob = models["pre_ln_transformer"]
        out_dir = str(tmp_path / "pipe")
        code = main(["pipeline", topo, blob, "--practical", "--out-dir", out_dir,
                     "--trials", "20"])
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "fold_report.json"))
        assert os.path.exists(os.path.join(out_dir, "folded.json"))
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["forward"]["pass"]


class TestSeedEnv:
    def test_lnfold_seed_override(self, models, tmp_path, capsys, monkeypatch):
        topo, blob, rep = TestFold()._analyze(models, tmp_path, "post_ln_transformer")
        out = str(tmp_path / "folded")
        main(["fold", topo, blob, "--report", rep, "--out", out])
        monkeypatch.setenv("LNFOLD_SEED", "123")
        # parser defaults are bound at construction; main() rebuilds the parser
        assert main(["verify", topo, blob, out + ".json", out + ".bin", "--trials", "3"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["forward"]["seed"] == 123

    @pytest.mark.parametrize("argv", [["flops", "--d", "4"], ["analyze", "missing.json", "missing.bin"]],
                             ids=["flops", "analyze"])
    def test_non_integer_seed_exits_1(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("LNFOLD_SEED", "abc")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LNFOLD_SEED must be an integer, got 'abc'\n"
