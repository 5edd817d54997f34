"""End-to-end CLI tests: exit codes, JSON determinism, pipeline wiring."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lnfold import cli, fixtures, fold_apply, graph_ir, verify
from lnfold.cli import main
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import Graph, WeightStore, load_model, make_node, model_hash, save_model, validate_graph
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

    def test_fractional_format_version_refused(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        _edit_topology(rep, lambda doc: dict(doc, format_version=2.0))
        capsys.readouterr()
        assert main(["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")]) == 1
        assert "unsupported report format_version 2.0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [["--out", "f"], ["--dry-run"]])
    def test_fold_validates_model_once(self, models, tmp_path, monkeypatch, flags):
        topo, blob, rep = self._analyze(models, tmp_path, "post_ln_transformer")
        validated = []
        original = graph_ir.validate_graph
        monkeypatch.setattr(graph_ir, "validate_graph",
                            lambda g, w: validated.append(g.provenance) or original(g, w))
        flags = [str(tmp_path / f) if f == "f" else f for f in flags]
        assert main(["fold", topo, blob, "--report", rep, *flags]) == 0
        # The folded model, which records what it was folded from, is checked too.
        assert [p is None for p in validated] == ([True] if "--dry-run" in flags else [True, False])

    def test_unsafe_model_refused(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "fanout_trap")
        assert main(["fold", topo, blob, "--report", rep, "--out", str(tmp_path / "f")]) == 1

    def test_pass_through_graph_output_is_affected(self, tmp_path, capsys):
        # scale passes the centering shift on, and as a graph output it shows it.
        topo, blob = _save(tmp_path, "m", *_scaled_output_graph())
        rep, out = str(tmp_path / "rep.json"), str(tmp_path / "f")
        assert main(["analyze", topo, blob, "--out", rep]) == 0
        assert "safe=no" in capsys.readouterr().err
        assert json.loads(Path(rep).read_text())["safety"]["affected"] == ["scale"]
        assert main(["fold", topo, blob, "--report", rep, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: fold refused: centered layers would perturb non-LayerNorm consumers (scale)\n")
        assert not os.path.exists(out + ".json") and not os.path.exists(out + ".bin")

    def test_insertion_id_skips_a_taken_name(self, tmp_path, capsys):
        # The Output already holds center_after_embed, so the insertion after embed takes the next free id.
        topo, blob = _save(tmp_path, "orig", *_pre_ln_output_named("center_after_embed"))
        rep, out = str(tmp_path / "rep.json"), str(tmp_path / "folded")
        assert main(["analyze", topo, blob, "--practical", "--out", rep]) == 0
        (insertion,) = json.loads(Path(rep).read_text())["insertions"]
        assert insertion["node_id"] == "center_after_embed_2"
        capsys.readouterr()
        assert main(["fold", topo, blob, "--report", rep, "--dry-run"]) == 0
        assert "insert AuxiliaryCentering center_after_embed_2 after embed" in capsys.readouterr().out
        assert main(["fold", topo, blob, "--report", rep, "--out", out, "--practical"]) == 0
        g, _w = load_model(out + ".json", out + ".bin")
        assert (g.nodes["center_after_embed_2"].kind, g.nodes["center_after_embed"].kind) == (
            "AuxiliaryCentering", "Output")
        assert main(["verify", topo, blob, out + ".json", out + ".bin", "--grad"]) == 0

    def test_practical_needs_flag(self, models, tmp_path, capsys):
        topo, blob, rep = self._analyze(models, tmp_path, "pre_ln_transformer", "--practical")
        out = str(tmp_path / "folded")
        capsys.readouterr()
        assert main(["fold", topo, blob, "--report", rep, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: report plans explicit centering insertions; pass --practical to apply them\n")
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


def _repeat_first(key):
    """Append a copy of the first item of the report's key list."""
    def edit(doc):
        doc[key].append(dict(doc[key][0]))
        return doc
    return edit


def _first(key, **fields):
    """Update the first item of the report's key list (an entry, a target or an insertion)."""
    def edit(doc):
        doc[key][0].update(fields)
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
    (_repeat_first("targets"), "report lists 'lin' more than once"),
    (_repeat_first("entries"), "report lists 'ln' more than once"),
    (_set("foldable", ["lin"]), "cannot fold: 'lin' is not a LayerNorm node"),
], ids=["conv_family", "recurrent_family", "groups_3", "groups_2", "target_node_ln",
        "spec_target_ln_weight", "insertion_after_ghost", "dropped_target",
        "duplicated_foldable", "duplicated_target", "duplicated_entry", "foldable_linear"])


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


    @_FOLD_FLAGS
    @pytest.mark.parametrize("name, analyze_flags, edit, message", [
        ("linear_then_norm", [], _spec(includes_bias="no"), "includes_bias must be a JSON boolean, got 'no'"),
        ("linear_then_norm", [], _spec(includes_bias=1), "includes_bias must be a JSON boolean, got 1"),
        ("linear_then_norm", [], _spec(groups=1.9), "groups must be a JSON integer, got 1.9"),
        ("linear_then_norm", [], _spec(groups=True), "groups must be a JSON integer, got True"),
        ("linear_then_norm", [], _first("targets", node=7), "node must be a JSON string, got 7"),
        ("linear_then_norm", [], _spec(target=5), "target must be a JSON string, got 5"),
        ("linear_then_norm", [], _set("strict_safety", "false"),
         "strict_safety must be a JSON boolean, got 'false'"),
        ("linear_then_norm", [], _set("safety", {"safe": 1, "affected": []}),
         "safe must be a JSON boolean, got 1"),
        ("pre_ln_transformer", ["--practical"],
         lambda doc: doc["insertions"][0]["edges"][0].__setitem__(2, 0.0) or doc,
         "insertion edge slot must be a JSON integer, got 0.0"),
        ("pre_ln_transformer", ["--practical"], _set("model_hash", 5), "model_hash must be a JSON string, got 5"),
        ("pre_ln_transformer", ["--practical"], _set("foldable", "ln_f"),
         "foldable must be a JSON list of strings, got 'ln_f'"),
        ("pre_ln_transformer", ["--practical"], _first("entries", ln_id=5), "ln_id must be a JSON string, got 5"),
        ("pre_ln_transformer", ["--practical"], _first("entries", verdict=7),
         "verdict must be a JSON string, got 7"),
        ("pre_ln_transformer", ["--practical"], _first("entries", opaque_leaves="xy"),
         "opaque_leaves must be a JSON list of strings, got 'xy'"),
        ("pre_ln_transformer", ["--practical"], _first("entries", off_axis_leaves=[1]),
         "off_axis_leaves must be a JSON list of strings, got [1]"),
        ("pre_ln_transformer", ["--practical"], _first("entries", warnings="abc"),
         "warnings must be a JSON list of strings, got 'abc'"),
        ("pre_ln_transformer", ["--practical"], _set("safety", {"safe": True, "affected": ""}),
         "affected must be a JSON list of strings, got ''"),
        ("pre_ln_transformer", ["--practical"], _first("insertions", after=["embed"]),
         "insertion producer must be a JSON string, got ['embed']"),
        ("pre_ln_transformer", ["--practical"], _first("insertions", node_id=0),
         "insertion node_id must be a JSON string, got 0"),
        ("pre_ln_transformer", ["--practical"],
         lambda doc: doc["insertions"][0]["edges"][0].__setitem__(1, 5) or doc,
         "insertion edge end must be a JSON string, got 5"),
        ("pre_ln_transformer", ["--practical"], _first("insertions", rescues="ln"),
         "insertion rescues must be a JSON list of strings, got 'ln'"),
    ], ids=["includes_bias_string", "includes_bias_int", "groups_float", "groups_bool",
            "target_node_int", "spec_target_int", "strict_safety_string", "safe_int", "slot_float",
            "model_hash_int", "foldable_string", "ln_id_int", "verdict_int", "opaque_leaves_string",
            "off_axis_leaves_ints", "warnings_string",
            "affected_string", "producer_list", "node_id_int", "edge_end_int", "rescues_string"])
    def test_coerced_field_exits_1(self, tmp_path, capsys, name, analyze_flags, edit, message,
                                   flags):
        err = self._fold(tmp_path, capsys, fixtures.ALL_FIXTURES[name](), analyze_flags, edit, flags)
        assert err.startswith(f"error: cannot read report: {message}")


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

    @pytest.mark.parametrize("argv", [["verify", "--trials", "1"], ["verify", "--grad"], ["pipeline"]],
                             ids=["verify", "verify_grad", "pipeline"])
    def test_inputs_too_large_to_draw_exit_1(self, tmp_path, capsys, argv):
        # A valid model whose 6 * 2**40 input values (48 TiB as uint64) no
        # host can draw. The command runs in a child process under a 3 GB
        # address-space cap, so a draw that grows instead of failing at once
        # runs out of memory there, not on the host.
        g, w = fixtures.linear_then_norm()
        topo, blob = _save(tmp_path, "huge", g, w)
        _edit_topology(topo, lambda doc: _node(doc, "x")["attrs"].update(shape=[2**40, 6]) or doc)
        report, prefix = str(tmp_path / "report.json"), str(tmp_path / "folded")
        assert main(["analyze", topo, blob, "--out", report]) == 0
        assert main(["fold", topo, blob, "--report", report, "--out", prefix]) == 0
        models = [topo, blob, prefix + ".json", prefix + ".bin"] if argv[0] == "verify" else [
            topo, blob, "--out-dir", str(tmp_path / "pipe")]
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                "from lnfold.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code, argv[0], *models, *argv[1:]],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: verification could not run: Unable to allocate"), done.stderr
        assert "Traceback" not in done.stderr

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


def _scaled_output_graph():
    """x -> lin -> ln, and lin -> ScalarScale scale; ln and scale are the
    graph outputs, with no Output node."""
    b = fixtures._Builder(0)
    lin = b.linear("lin", b.input("x", (4,)), 5, 4)
    b.layer_norm("ln", lin, 5)
    b.simple("scale", "ScalarScale", lin, {"scale": 0.5})
    b.outputs = ["ln", "scale"]
    return b.build()


def _pre_ln_output_named(node_id):
    """pre_ln_transformer with its Output node renamed node_id."""
    g, w = fixtures.pre_ln_transformer()
    (old,) = g.outputs
    nodes = [make_node(node_id, "Output") if n.id == old else n for n in g.nodes.values()]
    edges = [(src, node_id if dst == old else dst, slot) for src, dst, slot in g.edges]
    return Graph(nodes, edges, g.inputs, [node_id]), w


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
        # The benchmark's deepest stack: 456,672 parameters, below 2^19.
        deepest = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)[1]
        assert not verify.checks_overlap(deepest)

    def test_overlap_starts_past_half_the_budget(self):
        # A gradient batch holds one trial once the parameters alone pass 2^19.
        assert not verify.checks_overlap(WeightStore({"w": np.zeros(2**19)}))
        assert verify.checks_overlap(WeightStore({"w": np.zeros(2**19 + 1)}))

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


def _set_edge_slot(value):
    """Write value as the slot of an edge whose slot int(value) equals, so
    only a refusal of value itself can fail the load."""
    def edit(doc):
        next(e for e in doc["edges"] if e[2] == int(value))[2] = value
        return doc
    return edit


def _set_manifest(key, change):
    def edit(doc):
        entry = doc["weights_manifest"][1]
        entry[key] = change(entry[key])
        return doc
    return edit


def _wrapping_shape(doc):
    # 2**62 * 4 values wrap to 0 in int64, as many as byte_len 0 holds.
    doc["weights_manifest"][1].update(shape=[2**62, 4], byte_len=0)
    return doc


def _duplicate_parameter(doc):
    # An empty entry listed first, which the real one would silently replace.
    first = doc["weights_manifest"][0]
    doc["weights_manifest"].insert(0, dict(first, shape=[0], offset=0, byte_len=0))
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


def _input_id_number(doc):
    # The Input's id written as the number 7 everywhere it appears.
    _node(doc, "x")["id"] = 7
    doc["edges"] = [[7 if end == "x" else end for end in e[:2]] + e[2:] for e in doc["edges"]]
    doc["inputs"] = [7]
    return doc


def _null_param_ref(doc):
    _node(doc, "lin_in")["params"][1] = None
    return doc


def _edge_with_fourth_item(doc):
    doc["edges"][0].append(0)
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
        (_set_manifest("shape", lambda shape: [shape[0] + 0.9, *shape[1:]]), "an integer shape, offset"),
        (_set_manifest("shape", lambda shape: [str(shape[0]), *shape[1:]]), "an integer shape, offset"),
        (_set_manifest("offset", lambda offset: offset + 0.7), "an integer shape, offset"),
        (_set_manifest("offset", str), "an integer shape, offset"),
        (_set_manifest("byte_len", lambda byte_len: byte_len + 0.2), "an integer shape, offset"),
        (_duplicate_parameter, "is listed twice in the manifest"),
        (_wrapping_shape, f"0 values do not fill shape ({2**62}, 4)"),
        (_set_edge_slot(0.9), "is not [src, dst, slot]"),
        (_set_edge_slot("0"), "is not [src, dst, slot]"),
        (_set_edge_slot(1e-9), "is not [src, dst, slot]"),
        (_set_edge_slot(True), "is not [src, dst, slot]"),
        (_attrs_list, "'attrs' must be an object"),
        (_duplicate_node, "duplicate node id 'lin_in'"),
        (_set_attr("ln1", "eps", float("nan")), "topology holds NaN"),
        (_set_attr("ln1", "eps", float("inf")), "topology holds Infinity"),
        (_set_attr("act", "slope", float("-inf")), "topology holds -Infinity"),
        (_input_id_number, "topology 'inputs' must list node ids as strings"),
        (lambda doc: _node(doc, "x").update(id=7) or doc, "needs an 'id' and a 'kind', both strings"),
        (lambda doc: _node(doc, "x").update(kind=0) or doc, "needs an 'id' and a 'kind', both strings"),
        (_null_param_ref, "'params' a list of strings"),
        (lambda doc: doc["edges"][0].__setitem__(0, 7) or doc, "is not [src, dst, slot]"),
        (_edge_with_fourth_item, "is not [src, dst, slot]"),
        (lambda doc: dict(doc, outputs=[7]), "topology 'outputs' must list node ids as strings"),
        (_set_manifest("name", lambda name: 7), "needs a name, a dtype"),
        (lambda doc: dict(doc, format_version=True), "unsupported format_version True"),
        (lambda doc: dict(doc, format_version=1.0), "unsupported format_version 1.0"),
        (_set_manifest("dtype", lambda tag: "f16"), "unknown dtype 'f16'"),
        (_set_manifest("offset", lambda offset: -8), "negative shape, offset or byte_len"),
        *((lambda doc, value=value: dict(doc, provenance=value), "topology 'provenance' must be an object")
          for value in (["folded"], [], False, 0, "", None)),
    ], ids=["node_without_kind", "node_without_id", "short_edge", "top_level_list",
            "overlapping_manifest", "manifest_without_dtype", "manifest_entry_list",
            "manifest_shape_not_integer", "manifest_shape_fraction", "manifest_shape_text_entry",
            "manifest_offset_fraction", "manifest_offset_text", "manifest_byte_len_fraction",
            "manifest_duplicate_name", "manifest_shape_product_wraps", "edge_slot_fraction",
            "edge_slot_text", "edge_slot_tiny", "edge_slot_true", "attrs_not_object", "duplicate_node_id",
            "nan_attr", "infinite_attr", "minus_infinite_attr_on_relu",
            "input_id_number", "node_id_number", "node_kind_number", "param_ref_null",
            "edge_end_number", "edge_fourth_item", "output_id_number", "manifest_name_number",
            "format_version_true", "format_version_fraction", "manifest_dtype_f16",
            "manifest_offset_negative", "provenance_list", "provenance_empty_list", "provenance_false",
            "provenance_zero", "provenance_empty_text", "provenance_null"])
    def test_exits_1_with_message(self, models, tmp_path, capsys, edit, message):
        topo, blob = models["post_ln_transformer"]
        _edit_topology(topo, edit)
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load model: ") and message in err

    def test_empty_provenance_loads_as_none(self, models):
        topo, blob = models["post_ln_transformer"]
        _edit_topology(topo, lambda doc: dict(doc, provenance={}))
        assert load_model(topo, blob)[0].provenance is None
        assert main(["analyze", topo, blob]) == 0

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
        ("linear_then_norm", lambda doc: dict(doc, inputs=["x", "x"]), "declared input 'x' is listed twice"),
    ], ids=["linear_without_params", "unary_recurrent_cell", "input_listed_twice"])
    def test_short_layout_exits_1(self, tmp_path, capsys, name, edit, message):
        topo, blob = _save(tmp_path, name, *fixtures.ALL_FIXTURES[name]())
        _edit_topology(topo, edit)
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model failed validation: ") and message in err

    @pytest.mark.parametrize("arrays, h_width, message", [
        ({"cell.w_input": np.zeros(5)}, 6, "weight must be 2-D, got shape (5,)"),
        ({"cell.w_hidden": np.zeros((6, 5))}, 6, "hidden weight shape (6, 5) != (6, 6)"),
        ({"cell.w_input": np.zeros((6, 4))}, 6, "weight shape (6, 4) disagrees with incoming width 5"),
        ({}, 5, "weight shape (6, 6) disagrees with incoming width 5"),
    ], ids=["input_weight_1d", "hidden_weight_not_square", "input_width", "hidden_state_width"])
    def test_recurrent_cell_shapes_exit_1(self, tmp_path, capsys, arrays, h_width, message):
        # RecurrentCell is a two-slot Linear: each slot's weight meets its own input.
        g, w = fixtures.recurrent_then_norm()
        nodes = [make_node("h_prev", "Input", {"shape": [h_width]}) if n.id == "h_prev" else n
                 for n in g.nodes.values()]
        g, w = Graph(nodes, g.edges, g.inputs, g.outputs), WeightStore(dict(w.items(), **arrays))
        assert validate_graph(g, w).violations == [f"node 'cell': {message}"]
        topo, blob = _save(tmp_path, "m", g, w)
        assert main(["analyze", topo, blob]) == 1
        assert capsys.readouterr().err == f"error: model failed validation: node 'cell': {message}\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_recurrent_cell_inputs_disagreeing_off_the_last_axis_exit_1(self, tmp_path, capsys, command):
        # Both inputs feed one sum: analyze used to pass this, and verify failed broadcasting it.
        topo, blob = _save(tmp_path, "m", *fixtures.recurrent_then_norm())
        _edit_topology(topo, lambda doc: _set_attr("h_prev", "shape", [4, 6])(_set_attr("x", "shape", [3, 5])(doc)))
        argv, prefix = {
            "analyze": (["analyze", topo, blob], "model failed validation"),
            "verify": (["verify", topo, blob, topo, blob, "--trials", "2"], "verification could not run"),
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {prefix}: node 'cell': input shapes (3, 5) and (4, 6) disagree off the last axis\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("shape", [[2**70, 6], [2**40, 2**40]], ids=["entry", "element_count"])
    def test_input_shape_beyond_int64_exits_1(self, tmp_path, capsys, command, shape):
        # No array has such a shape: analyze passed [2**70, 6], and verify failed allocating it.
        topo, blob = _save(tmp_path, "m", *fixtures.linear_then_norm())
        _edit_topology(topo, _set_attr("x", "shape", shape))
        argv, prefix = {
            "analyze": (["analyze", topo, blob], "model failed validation"),
            "verify": (["verify", topo, blob, topo, blob, "--trials", "3"], "verification could not run"),
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {prefix}: node 'x': Input shape must have entries and an element count "
            f"within int64, got {shape!r}\n")

    @pytest.mark.parametrize("raw, message", [
        (b"9" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
        (b'"\xff"', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["integer_past_digit_limit", "invalid_utf8"])
    def test_unreadable_text_exits_1(self, tmp_path, capsys, raw, message):
        topo, blob = _save(tmp_path, "m", *fixtures.linear_then_norm())
        _edit_topology(topo, _set_attr("ln", "note", "RAW"))
        Path(topo).write_bytes(Path(topo).read_bytes().replace(b'"RAW"', raw))
        assert main(["analyze", topo, blob]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load model: topology parse error: ") and message in err

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

    @pytest.mark.parametrize("value", ["false", 1])
    def test_non_boolean_integer_exits_1(self, tmp_path, capsys, value):
        # Read by truthiness, "false" made a float input a {0, 1} index stream.
        topo, blob = _save(tmp_path, "m", *fixtures.linear_then_norm())
        _edit_topology(topo, _set_attr("x", "integer", value))
        assert main(["analyze", topo, blob]) == 1
        assert capsys.readouterr().err == (
            f"error: model failed validation: node 'x': attr 'integer' must be a boolean, got {value!r}\n")

    @pytest.mark.parametrize("command", ["analyze", "pipeline"])
    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_float_beyond_a_double_exits_1(self, tmp_path, capsys, command, literal):
        # json reads such a literal as +-inf without calling parse_constant.
        topo, blob = _save(tmp_path, "m", *fixtures.linear_then_norm())
        _edit_topology(topo, _set_attr("ln", "eps", "EPS"))
        Path(topo).write_text(Path(topo).read_text().replace('"EPS"', literal))
        argv = {"analyze": ["analyze", topo, blob],
                "pipeline": ["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe")]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: cannot load model: topology holds {literal}; numbers must be finite\n")

    def test_integer_beyond_a_double_exits_1(self, tmp_path, capsys):
        topo, blob = _save(tmp_path, "m", *fixtures.linear_then_norm())
        _edit_topology(topo, _set_attr("ln", "eps", 10**400))
        assert main(["analyze", topo, blob]) == 1
        assert capsys.readouterr().err == (
            f"error: model failed validation: node 'ln': attr 'eps' must be a number, got {10**400}\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("attr", ["padding", "stride"])
    def test_int_attr_beyond_int64_exits_1(self, tmp_path, capsys, command, attr):
        # Unbounded, a padding of 10**400 passed analyze and crashed verify.
        topo, blob = _save(tmp_path, "m", *fixtures.conv_block())
        _edit_topology(topo, _set_attr("conv", attr, 10**400))
        argv, prefix = {
            "analyze": (["analyze", topo, blob], "model failed validation"),
            "verify": (["verify", topo, blob, topo, blob, "--trials", "3", "--grad"],
                       "verification could not run"),
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {prefix}: node 'conv': attr {attr!r} must lie in the int64 range, got {10**400}\n")


class TestFoldInvalidModel:
    """fold refuses a model that fails validation, as analyze does, even
    given a hand-written report whose model_hash matches it."""

    @_FOLD_FLAGS
    @pytest.mark.parametrize("name, edit, message", [
        ("linear_then_norm", lambda doc: doc["edges"].append(["ghost", "ln", 0]) or doc,
         "edge references unknown source 'ghost'"),
        ("linear_then_norm", _set_attr("ln", "eps", -1), "node 'ln': eps must be >= 0, got -1.0"),
        ("conv_block", _set_attr("conv", "stride", 0), "node 'conv': stride must be >= 1"),
    ], ids=["edge_from_unknown_node", "negative_eps", "conv_stride_0"])
    def test_exits_1(self, tmp_path, capsys, name, edit, message, flags):
        topo, blob = _save(tmp_path, "m", *fixtures.ALL_FIXTURES[name]())
        rep = str(tmp_path / "rep.json")
        assert main(["analyze", topo, blob, "--out", rep]) == 0
        _edit_topology(topo, edit)
        _edit_topology(rep, lambda doc: dict(doc, model_hash=model_hash(*load_model(topo, blob))))
        capsys.readouterr()
        out = str(tmp_path / "f")
        assert main(["fold", topo, blob, "--report", rep, *[out if f == "f" else f for f in flags]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: model failed validation: ") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not os.path.exists(out + ".json") and not os.path.exists(out + ".bin")


class TestValidatedOncePerModel:
    """Each command validates each model it reads once, and pipeline the
    model it writes as well (fold: TestFold.test_fold_validates_model_once)."""

    @pytest.fixture()
    def validated(self, monkeypatch):
        calls = []
        original = graph_ir.validate_graph
        monkeypatch.setattr(graph_ir, "validate_graph", lambda g, w: calls.append(g) or original(g, w))
        return calls

    @pytest.fixture()
    def folded(self, models, tmp_path):
        topo, blob = models["post_ln_transformer"]
        g, w = load_model(topo, blob)
        return topo, blob, *_save(tmp_path, "folded", *fold_apply.apply_fold(g, w, detect_foldable(g, w)))

    def test_analyze(self, models, capsys, validated):
        assert main(["analyze", *models["post_ln_transformer"]]) == 0
        assert len(validated) == 1

    @pytest.mark.parametrize("flags, overlap", [([], False), (["--grad"], False), (["--grad"], True)],
                             ids=["forward", "grad", "grad_overlapped"])
    def test_verify(self, folded, capsys, monkeypatch, validated, flags, overlap):
        ran_on = []
        real_forward = cli.verify_forward
        monkeypatch.setattr(cli, "checks_overlap", lambda w: overlap)
        monkeypatch.setattr(cli, "verify_forward", lambda *a, **k: ran_on.append(
            threading.current_thread()) or real_forward(*a, **k))
        assert main(["verify", *folded, "--trials", "3", "--grad-trials", "2", *flags]) == 0
        assert (ran_on[0] is not threading.main_thread()) is overlap
        assert [g.provenance is None for g in validated] == [True, False]

    def test_pipeline(self, models, tmp_path, capsys, validated):
        topo, blob = models["post_ln_transformer"]
        assert main(["pipeline", topo, blob, "--out-dir", str(tmp_path / "pipe"), "--trials", "3"]) == 0
        assert [g.provenance is None for g in validated] == [True, False]


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

    @pytest.mark.parametrize("argv, stdout", [
        (["--d", "8"],
         '{"d":8,"variant":"naive","groups":null,'
         '"layer_norm":{"adds":40,"muls":16,"divs":8,"variant":"naive","d":8,"g":null,"ticks":80},'
         '"rms_norm":{"adds":8,"muls":16,"divs":8,"variant":"naive","d":8,"g":null,"ticks":48},'
         '"saving_fraction":0.40000000000000002}\n'),
        (["--d", "64", "--variant", "welford", "--groups", "4"],
         '{"d":64,"variant":"welford","groups":4,'
         '"layer_norm":{"adds":448,"muls":220,"divs":64,"variant":"welford","d":64,"g":4,"ticks":860},'
         '"rms_norm":{"adds":64,"muls":192,"divs":0,"variant":"welford","d":64,"g":4,"ticks":256},'
         '"saving_fraction":0.70232558139534884}\n'),
    ], ids=["naive", "welford"])
    def test_stdout_is_pinned(self, capsys, argv, stdout):
        # Byte for byte: each count's key order is FlopCount's field order.
        assert main(["flops", *argv]) == 0
        assert capsys.readouterr().out == stdout

    def test_invalid_d(self, capsys):
        assert main(["flops", "--d", "0"]) == 1

    def test_invalid_groups(self, capsys):
        assert main(["flops", "--d", "8", "--variant", "welford", "--groups", "0"]) == 1
        assert capsys.readouterr().err == "error: --groups must be >= 1, got 0\n"


def test_fixtures_module_writes_every_fixture(tmp_path):
    # The README's `python -m lnfold.fixtures OUTDIR`, run against the package under test.
    env = dict(os.environ, PYTHONPATH=str(Path(fixtures.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "lnfold.fixtures", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(fixtures.ALL_FIXTURES) == 13
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{name}.{ext}" for name in fixtures.ALL_FIXTURES for ext in ("json", "bin"))
    for name, build in fixtures.ALL_FIXTURES.items():
        loaded = load_model(str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.bin"))
        assert model_hash(*loaded) == model_hash(*build()), name


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    # The README's command-line walk-through, in its order and with its paths.
    monkeypatch.chdir(tmp_path)
    assert fixtures.main(["demo/"]) == 0
    model = ["demo/pre_ln_transformer.json", "demo/pre_ln_transformer.bin"]
    capsys.readouterr()
    assert main(["analyze", *model, "--practical", "--out", "report.json"]) == 0
    assert capsys.readouterr().err == "LN=5 foldable=5 strict=0 practical=5 insertions=1 safe=yes\n"
    assert main(["fold", *model, "--report", "report.json", "--practical", "--out", "folded"]) == 0
    assert main(["verify", *model, "folded.json", "folded.bin", "--trials", "100", "--grad"]) == 0
    assert main(["flops", "--d", "4096", "--variant", "welford", "--groups", "32"]) == 0
    post_ln = ["demo/post_ln_transformer.json", "demo/post_ln_transformer.bin"]
    assert main(["pipeline", *post_ln, "--out-dir", "out/"]) == 0


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
        # main() reads LNFOLD_SEED on every call
        assert main(["verify", topo, blob, out + ".json", out + ".bin", "--trials", "3"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["forward"]["seed"] == 123

    def test_one_parser_reads_the_seed_on_every_call(self, models, capsys, monkeypatch):
        topo, blob = models["post_ln_transformer"]
        cli.build_parser.cache_clear()
        seeds = []
        for value in ("123", None):
            if value is None:
                monkeypatch.delenv("LNFOLD_SEED")
            else:
                monkeypatch.setenv("LNFOLD_SEED", value)
            assert main(["verify", topo, blob, topo, blob, "--trials", "1"]) == 0
            seeds.append(_last_json(capsys)["forward"]["seed"])
        assert seeds == [123, 0]
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [["flops", "--d", "4"], ["analyze", "missing.json", "missing.bin"], ["--help"]],
                             ids=["flops", "analyze", "help"])
    def test_non_integer_seed_exits_1(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("LNFOLD_SEED", "abc")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LNFOLD_SEED must be an integer, got 'abc'\n"
