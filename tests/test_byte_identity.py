"""Regression pin: CLI outputs stay byte-identical across refactors.

Each case runs ``analyze`` -> ``fold --dry-run`` -> ``fold`` -> ``verify
--grad`` through the CLI and records exit codes and sha256 digests of the
report, the dry-run diff, the folded model files and the verify JSON. The
folded-model and verify digests were recorded before graph adjacency was
indexed; the report digests were re-pinned once, for report format 2. The
dry-run digests were recorded before reports were checked against a
re-derived fold plan; the shared_producer digests were recorded before a
fold spliced its report's recorded insertions; the linear_then_norm_f32
and integer_input_norms digests were recorded before the normalization
kernels were rewritten with fewer numpy calls; the recurrent_then_norm
digests were recorded before RecurrentCell took Linear's backward. The
verify digests were re-pinned once, when verify's inputs moved from numpy's
per-trial generators to lnfold's own SplitMix64 counter stream.
Regenerate them with ``python tests/test_byte_identity.py`` (with ``src``
on the path) only for a change that means to alter output.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.cli import main
from lnfold.graph_ir import WeightStore, save_model


def shared_producer():
    """One producer read three times: tokens -> embed; add = ResidualAdd(embed,
    embed); ln_a(add) and ln_b(embed) are both outputs. A practical fold
    centers after embed and reroutes all three edges, two into add's slots."""
    b = fixtures._Builder(0)
    embed = b.embedding("embed", b.input("tokens", (4,), integer=True, high=13), 13, 16)
    add = b.simple("add", "ResidualAdd", (embed, embed))
    b.output(b.layer_norm("ln_a", add, 16))
    b.output(b.layer_norm("ln_b", embed, 16))
    return b.build()


def linear_then_norm_f32():
    """linear_then_norm with every weight stored as f32."""
    g, w = fixtures.linear_then_norm()
    return g, WeightStore({name: arr.astype(np.float32) for name, arr in w.items()})


def integer_input_norms():
    """An integer Input read directly by a LayerNorm and an RMSNorm, so the
    norm kernels see int64 rows (some constant); a Linear -> LayerNorm after
    the first gives the fold a target."""
    b = fixtures._Builder(0)
    tokens = b.input("tokens", (8,), integer=True, high=5)
    ln_in = b.layer_norm("ln_in", tokens, 8)
    b.output(b.simple("rms_in", "RMSNorm", tokens, {"eps": 1e-5}))
    b.output(b.layer_norm("ln", b.linear("lin", ln_in, 8, 8), 8))
    return b.build()


CASES = {
    "linear_then_norm": lambda: fixtures.linear_then_norm(),
    "residual_scale_mix": lambda: fixtures.residual_scale_mix(),
    "post_ln_transformer": lambda: fixtures.post_ln_transformer(),
    "fanout_trap": lambda: fixtures.fanout_trap(),
    "pre_ln_transformer_12": lambda: fixtures.pre_ln_transformer(blocks=12),
    "shared_producer": shared_producer,
    "linear_then_norm_f32": linear_then_norm_f32,
    "integer_input_norms": integer_input_norms,
    "recurrent_then_norm": lambda: fixtures.recurrent_then_norm(),
}
MODES = ("strict", "practical")



def _sha(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_case(case, mode, workdir):
    """Exit codes of analyze, fold and verify, and digests of what they wrote;
    the dry run's exit code and stdout digest come separately."""
    top, wts = os.path.join(workdir, "model.json"), os.path.join(workdir, "model.bin")
    report, prefix = os.path.join(workdir, "report.json"), os.path.join(workdir, "folded")
    save_model(*CASES[case](), top, wts)
    practical = ["--practical"] if mode == "practical" else []
    out, diff = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        codes = [main(["analyze", top, wts, "--out", report] + practical)]
        with contextlib.redirect_stdout(diff):
            dry = main(["fold", top, wts, "--report", report, "--dry-run"] + practical)
        codes += [
            main(["fold", top, wts, "--report", report, "--out", prefix] + practical),
        ]
        codes.append(
            main(["verify", top, wts, prefix + ".json", prefix + ".bin",
                  "--trials", "5", "--grad-trials", "2", "--grad"])
            if os.path.exists(prefix + ".json") else None
        )
    return {
        "exit": codes,
        "dry_run": [dry, hashlib.sha256(diff.getvalue().encode()).hexdigest()],
        "report": _sha(report),
        "folded_json": _sha(prefix + ".json"),
        "folded_bin": _sha(prefix + ".bin"),
        "verify": hashlib.sha256(out.getvalue().encode()).hexdigest() if codes[2] is not None else None,
    }


EXPECTED = {
    "fanout_trap/strict": {
        "exit": [0, 1, None],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "6765b7bade7b33482a76131bea508a06b9e7da35a1e1756740191b6004c7a0b0",
        "folded_json": None,
        "folded_bin": None,
        "verify": None,
    },
    "fanout_trap/practical": {
        "exit": [0, 1, None],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "1b953a4908a27856edd039d091f583b682f395f9cedc6e5430691a0c61597415",
        "folded_json": None,
        "folded_bin": None,
        "verify": None,
    },
    "integer_input_norms/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "ee8072c1601e896b3f436c9e1167cc162534bc47666396abb3d3fd52a5f771d9",
        "folded_json": "91f4997a66b7f26e0baf9a9b009a360011bf3cdcaa5d915bddc4c7136adc308d",
        "folded_bin": "e1de2e319bc2ea285db7d1465fc28c5c7421a952827b4ad4ecd703967d65e64e",
        "verify": "1febe5d7a50adcea4646182ddf3786979408431e267a826100641543ee410312",
    },
    "integer_input_norms/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "680589349e28a626884a4507ade11d77580d006f85c160cff66e2772abf11ccb",
        "folded_json": "3d5a8f5b604ce055939443b1e85192535f45bc0dc0cc3841013069cb498d9e03",
        "folded_bin": "e1de2e319bc2ea285db7d1465fc28c5c7421a952827b4ad4ecd703967d65e64e",
        "verify": "1febe5d7a50adcea4646182ddf3786979408431e267a826100641543ee410312",
    },
    "linear_then_norm/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "026c0762a72178ada35459192f009b5c7680eb34b7bd7242543e9cc8a34372ff",
        "folded_json": "5d6fb54718eea6ba66ebca68bdf29692f44a23cab306d749ad3e4d48191cb90f",
        "folded_bin": "17f7420497f599f0b83644773d56d1dfbc8ff09a7bfd9c72535dfd2448c18817",
        "verify": "f2f47e36fc66247c53efe3f7c18400134ae626f63b3df6da50655acb5f809d1f",
    },
    "linear_then_norm/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "fe14ff89597ed2336a0c871966045139d4291df1cad777433debee4014ae92bf",
        "folded_json": "bb7469f232d6b5841cd5156f071a203e4e902366b575790c0958dd2173316a29",
        "folded_bin": "17f7420497f599f0b83644773d56d1dfbc8ff09a7bfd9c72535dfd2448c18817",
        "verify": "f2f47e36fc66247c53efe3f7c18400134ae626f63b3df6da50655acb5f809d1f",
    },
    "linear_then_norm_f32/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "b29276e19a6492a9729aa12132534b582684ac46ddc3100c175b5de7f5ae242f",
        "folded_json": "236da03390cb905dc545a41fdb73b1ede9a05fceccfd2d70057418d4eb9f784c",
        "folded_bin": "5cdc9670b3841c3d45c2d1d3d788af966d7d2dd1b260c8abe262a01831f3af9c",
        "verify": "cbb2e9528a24b27dadd597f0354f512cce77dc8ac054cac1c149e2f9f6c854a8",
    },
    "linear_then_norm_f32/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "2b3444c0329f214409190c9cb77d5f68aba11899886370ade1516300f4d5189f"],
        "report": "576ca21b81ed8ab8026b758450087b55f2815e02c3ce3994c7c85f7791dbfaac",
        "folded_json": "6ffe6af92fa44104a43717eb1f37866554ba82554328a1b225cde584cd8038dd",
        "folded_bin": "5cdc9670b3841c3d45c2d1d3d788af966d7d2dd1b260c8abe262a01831f3af9c",
        "verify": "cbb2e9528a24b27dadd597f0354f512cce77dc8ac054cac1c149e2f9f6c854a8",
    },
    "post_ln_transformer/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "ed96634852e74cd8f6d95b70e1dbea175a36e12254d73fd18920e0ed93cb4f3a"],
        "report": "341c5b4bd113045e2c4d5910559963c1d800045b308dcad79e42ef74cf74b912",
        "folded_json": "88314dbee47cd0c1f918d8bd3b48c3c080170fc4da3d898ccc8041c2b6a3a204",
        "folded_bin": "e4a815f2023ca295cf4b0d62ec528e401526e1f714560818ee9334699b440b12",
        "verify": "4dcbfe034a1381d8dbc2c85d42d01f45e50a359b40809016a8df49795bba2cea",
    },
    "post_ln_transformer/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "ed96634852e74cd8f6d95b70e1dbea175a36e12254d73fd18920e0ed93cb4f3a"],
        "report": "c5a13bfcb3fa3825296fb54ce39dbb031605687d218900483fde530eb7461157",
        "folded_json": "faea224fc23979756e8af4c9146b448d115e601f5eea767da4d2811ffcc09288",
        "folded_bin": "e4a815f2023ca295cf4b0d62ec528e401526e1f714560818ee9334699b440b12",
        "verify": "4dcbfe034a1381d8dbc2c85d42d01f45e50a359b40809016a8df49795bba2cea",
    },
    "pre_ln_transformer_12/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "d518f60de5bc909104bf429e9ec99844628a7c5ecdfd1118442a21b592476674"],
        "report": "8f1e765f9619962e6db6d3eb48ee302eee97642e076e6a10a873158b21fa05bc",
        "folded_json": "adb4c353c66dfaedc291a9c28317919a1caa165fc17ce503f8d5eef506a84b07",
        "folded_bin": "c5f66b3a3c81902f430325c3550927be03b7d14944dd4792cc90540c6e327981",
        "verify": "381dca335ba3a37782191856d6c4f1654e65b7505820fc418d79080b3d52ea8a",
    },
    "pre_ln_transformer_12/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "9fc68975a26286e7ffd017e31d48e47a8db62a6670b825a3a95196181c2ea2c9"],
        "report": "046e0adb869f507812d71e421a8cbdd67d7d5b7faa9cffc86ab5fb7cf0cb5906",
        "folded_json": "f30d98aa312c6146b7d6f1385a0c4c24c5d4000187517e147927d448a2a35f70",
        "folded_bin": "64333646e5199cf87e32aba11e86b47fc11bcf1c4ea755d53d6912b7f6c2314e",
        "verify": "e2c9c28f344a877695bd34fe75c0dabd5eddac4442c73632a08f018c185284d6",
    },
    "recurrent_then_norm/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "16046a8f45dc95fd5da7c7d4886f97f5cd0ea30727e5e1fec082d4442b32a6c9"],
        "report": "40c0988359d93aafab56738ec1b83ff0bae05d1d227ff45cfcf8bbb5bc46594c",
        "folded_json": "a97b3673c3ab8e424747c132adbdf3e7ff7c3188cf978520879701d31bd95def",
        "folded_bin": "aa9799fc3417d480d2f4beae633e969eb81e2064c8d4a4cd1efa44c6dfb6e9b3",
        "verify": "0ea48bb7b8c7d5852f4c2882143ecbfb85a4ddc306eb6c1766dbb3e842bebe38",
    },
    "recurrent_then_norm/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "16046a8f45dc95fd5da7c7d4886f97f5cd0ea30727e5e1fec082d4442b32a6c9"],
        "report": "18767cb7993cea26733634ae5c7aa67ee2454c6fd3661eec285d6f6df5ea69e1",
        "folded_json": "f4e99d7afd66d94ab47fe3f09cc6e45589eb20fef337e2baead02f956a1532b5",
        "folded_bin": "aa9799fc3417d480d2f4beae633e969eb81e2064c8d4a4cd1efa44c6dfb6e9b3",
        "verify": "0ea48bb7b8c7d5852f4c2882143ecbfb85a4ddc306eb6c1766dbb3e842bebe38",
    },
    "residual_scale_mix/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "42628cd7ac95fd40cb8011d83427b68639f53f2eb7fd73baca87ec117c1afcb3"],
        "report": "abc11ce8ec9620d6460b86c971f24a381f9d72b687abef26f50e2800c4fcc607",
        "folded_json": "5473518e2faa0337b04e16c204871b82d1b2bd02fe8b2e5f8a4684d4eac17d62",
        "folded_bin": "85cdf5a4f358c6a31fbff9831c6efeba495b03cfd07f75dbc0fd291ac4c79fab",
        "verify": "9a51daea41812535793767154baf8676dbce9384552d998cb0c5e9786d787860",
    },
    "residual_scale_mix/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "42628cd7ac95fd40cb8011d83427b68639f53f2eb7fd73baca87ec117c1afcb3"],
        "report": "9b8509a0d76bdd864bf6db8c39014a01e62310aa5011479df904fd96d9093dce",
        "folded_json": "4b2ea249a3757384c9599bb4f048c823d15cae3ef8d2acfca0d85ad29afce3ae",
        "folded_bin": "85cdf5a4f358c6a31fbff9831c6efeba495b03cfd07f75dbc0fd291ac4c79fab",
        "verify": "9a51daea41812535793767154baf8676dbce9384552d998cb0c5e9786d787860",
    },
    "shared_producer/practical": {
        "exit": [0, 0, 0],
        "dry_run": [0, "e1ecb6cb0b16ff4e9a275d7407a0f8f5abe58f149ee1d291b9186839e2da1ff6"],
        "report": "f6ae928e5373e5b3d08a41e2d9a69da6ba2f05d7b6725f4afbbea1fb3b37ac43",
        "folded_json": "70bbcabffd540c268529528d55c993a6d0b3c81df04de89283fb0c8c065c717a",
        "folded_bin": "498ad3e15ddbd31b406319636d9f1936dd39eb5ab777587b78ba62c04436cd42",
        "verify": "ba9b31060e8ba673ff02c7ecb426dff91735b9da57d9ac8348c89b3e53848bcf",
    },
    "shared_producer/strict": {
        "exit": [0, 0, 0],
        "dry_run": [0, "d518f60de5bc909104bf429e9ec99844628a7c5ecdfd1118442a21b592476674"],
        "report": "b9f184fa1d72d5fed43052dc70d9b17e15d5788781b50afa8c3504ae35634d09",
        "folded_json": "34021ef1ba6f9fbc9671bf2263e16385a9ad049dc987314173f0c8b681dc896d",
        "folded_bin": "498ad3e15ddbd31b406319636d9f1936dd39eb5ab777587b78ba62c04436cd42",
        "verify": "381dca335ba3a37782191856d6c4f1654e65b7505820fc418d79080b3d52ea8a",
    },
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_byte_identical(case, mode, tmp_path):
    assert run_case(case, mode, str(tmp_path)) == EXPECTED[f"{case}/{mode}"]


if __name__ == "__main__":
    table = {}
    for case in sorted(CASES):
        for mode in MODES:
            with tempfile.TemporaryDirectory() as tmp:
                table[f"{case}/{mode}"] = run_case(case, mode, tmp)
    json.dump(table, sys.stdout, indent=4)
    print()
