"""Golden hashes: a toy ``fgn`` session writes the same bytes, file by file.

One subprocess, pinned to one BLAS thread, runs ``fgn.cli.main`` for
``synth``, then ``train`` and ``eval`` for every (variant, ablation) pair in
both mask modes (the second with GELU and sinusoidal positions), then
``ablate``. Dropout is on and the last training batch is partial. The
SHA-256 of every file it writes must match ``GOLDEN``.

The bits depend on NumPy and on the BLAS kernels, so the test skips, naming
the difference, unless NumPy's version and the runtime OpenBLAS config
string (its core name included) match the ones the hashes were recorded
with.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX "
                 "MAX_THREADS=64")

MODEL = {"n_encoder_layers": 1, "n_decoder_layers": 1, "d_model": 16, "d_ff": 32, "h": 2,
         "lookback": 8, "label_len": 4, "horizon": 4, "dropout_rate": 0.1}
# 4 cycles = 4000 rows; stride 8 cuts 399 train windows, so the last batch of 50 holds 49
RUN = {"train": {"max_epochs": 2, "patience": 1, "batch_size": 50}, "seed": 3,
       "data": {"path": "gait.csv", "stride": 8}, "horizons": [1, 2]}
CONFIGS = {
    "additive": {"mask_mode": "pre_softmax_additive", "ffn_activation": "relu",
                 "positional_embedding": "none"},
    "literal": {"mask_mode": "literal_post_softmax", "ffn_activation": "gelu",
                "positional_embedding": "sinusoidal"},
}
PAIRS = [("focalgatednet", "glu_dcf"), ("focalgatednet", "dcf_only"),
         ("focalgatednet", "glu_only"), ("transformer", "glu_dcf"),
         ("dlinear", "glu_dcf"), ("nlinear", "glu_dcf")]

# Runs each argv of the JSON list in argv[1] through the CLI entry point.
DRIVER = """
import json, sys
from fgn.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("fgn " + " ".join(argv) + " failed")
"""

GOLDEN = {
    "ablate/report.json":
        "7f0da14f0ffb6b093745aa641c12a6ce0954b9d336604e1b0cce561e63f200ff",
    "ablate/report.txt":
        "d29b136229d6303abd54aac31d76260e26add50160dc8700e820412e951318cf",
    "additive.json":
        "f28ac33e6e974f5c6825dde64c2965fb6a61e0779c3bd4479babdd70e12e8007",
    "eval/additive/dlinear_glu_dcf/report.json":
        "80c3350c23ef7cecd99c9d031a24ecf77cffc260e05b0e170a1519e950c3e6a7",
    "eval/additive/dlinear_glu_dcf/report.txt":
        "46fbf33e942374a0b32ccd95fe156a3435ba96145ff3be631cd7819658ef0f99",
    "eval/additive/focalgatednet_dcf_only/report.json":
        "3caeedfa2250d69ea3abadebf3841cd194001d91a1a4f1a974242ff0b716c01b",
    "eval/additive/focalgatednet_dcf_only/report.txt":
        "dd002c042ed831561b32b193d2c28b104ef6d6e708ede58683fded0308b5203d",
    "eval/additive/focalgatednet_glu_dcf/report.json":
        "bfdbaed59f99168a421582c81e435e572a126c5dc358d3a4f2f85c879dba3da7",
    "eval/additive/focalgatednet_glu_dcf/report.txt":
        "6aa5deb30df086c65330a67db193e9e021faab40a5f7c34f143bdae1cea2b82c",
    "eval/additive/focalgatednet_glu_only/report.json":
        "3a1f97fffe49f15c1736282f658d95693c36d48a441e0bbc2cbd11ae1b003c70",
    "eval/additive/focalgatednet_glu_only/report.txt":
        "18ce7557d12acbaafa6307ba8b713040df20c09eff22c5704a82fde351954da2",
    "eval/additive/nlinear_glu_dcf/report.json":
        "1c218182ec5e5c39f50e586288e31b21c00482745fea8040f5d9980f59814d92",
    "eval/additive/nlinear_glu_dcf/report.txt":
        "521bc2e2980954160d5b852e7d863bb2287bcb7423bd3e5b0b41301cbe3ec4af",
    "eval/additive/transformer_glu_dcf/report.json":
        "2eeda9176906287787bb1c8015128db1771612417b14534dbaeed7bbbb12a554",
    "eval/additive/transformer_glu_dcf/report.txt":
        "a1fc8ac1f7e99047132e26cbdffdf81d6b556fb1d3be47718b98351dc42d04af",
    "eval/literal/dlinear_glu_dcf/report.json":
        "80c3350c23ef7cecd99c9d031a24ecf77cffc260e05b0e170a1519e950c3e6a7",
    "eval/literal/dlinear_glu_dcf/report.txt":
        "46fbf33e942374a0b32ccd95fe156a3435ba96145ff3be631cd7819658ef0f99",
    "eval/literal/focalgatednet_dcf_only/report.json":
        "9c45523bcb667c7f307e644a65302c9d42490423044b871ff27fd6fa68a059d3",
    "eval/literal/focalgatednet_dcf_only/report.txt":
        "711f7dde8d39bf0f54d84b0564633f24bd14534f730dae9b07e27d81a961f140",
    "eval/literal/focalgatednet_glu_dcf/report.json":
        "131c01cfd8340dc07dbdf7b9ec2c79d2a49725fda3561dbfe24be8b89e541c32",
    "eval/literal/focalgatednet_glu_dcf/report.txt":
        "276af8250862f6ba4dbd86003f370e717244d4b9ebdfa0c1d64e63ab4087aad2",
    "eval/literal/focalgatednet_glu_only/report.json":
        "92bd8bfea8d207815b0f363555a531bc071d0bed8467700565b7e62ce440a49a",
    "eval/literal/focalgatednet_glu_only/report.txt":
        "331968c7d05c9da992f374cb687e522cda7a2f38d7a074a549ddfc23b8f0e3ca",
    "eval/literal/nlinear_glu_dcf/report.json":
        "1c218182ec5e5c39f50e586288e31b21c00482745fea8040f5d9980f59814d92",
    "eval/literal/nlinear_glu_dcf/report.txt":
        "521bc2e2980954160d5b852e7d863bb2287bcb7423bd3e5b0b41301cbe3ec4af",
    "eval/literal/transformer_glu_dcf/report.json":
        "f2a8cd84dbf09d27ac53bba7959ba96d4bd8a56304b1afecc91265d39aadf423",
    "eval/literal/transformer_glu_dcf/report.txt":
        "d10349f9ddc5468f2584017b192c9710b97e38c279dbdde7ed551f355883e28d",
    "gait.csv":
        "a91789219afbf9d75f1ae48bd68004f7adb378a396a33457d6e30d41a06c8c38",
    "literal.json":
        "ddea9aa4d227ac8faac09dd8ac0bfcdb370095e2027bb0d951afcfe5158d8127",
    "train/additive/dlinear_glu_dcf/checkpoint.fgn":
        "69d8a1a606f82d2d83089eb30c3285d85604009bab07a90db0c5af309b875bdd",
    "train/additive/dlinear_glu_dcf/report.json":
        "7b38af8fbb3426744ef2cbb5eaeca53bb2c2d701db16114c86378530302eea36",
    "train/additive/dlinear_glu_dcf/report.txt":
        "9aa51ea6b85a2907789d997071d8275b71d6dc8d906b6799dd2f3651bda85406",
    "train/additive/dlinear_glu_dcf/trace.json":
        "74687790ac6ebb4b9cc7154c43e731a218405f29fb05a71afc076614bb52d997",
    "train/additive/focalgatednet_dcf_only/checkpoint.fgn":
        "d7fd9c370fdcb93d6fd762fffe1c45fc8ba1fe2050a377ff50e0e1f16978c447",
    "train/additive/focalgatednet_dcf_only/report.json":
        "5232830f390dfb72c15245959943c11a924195e4dc82973f9af50ce2becc6447",
    "train/additive/focalgatednet_dcf_only/report.txt":
        "8074dde88bdc92737eaa0aeeff3e83ab4814b51b6046cb3eda665abbdcc26f6c",
    "train/additive/focalgatednet_dcf_only/trace.json":
        "cae3cc2e25e27b7044c02b1ddc3894f00a2331f352e5477270ef4fe8210ea488",
    "train/additive/focalgatednet_glu_dcf/checkpoint.fgn":
        "ae060627e4650aa57886bbf9a5de678fdd56b317ebb096df8e34056bef4a07cb",
    "train/additive/focalgatednet_glu_dcf/report.json":
        "9f5d68216ed2acb5b566d5494d92acae2ed73b9d89901676d52df6766370d394",
    "train/additive/focalgatednet_glu_dcf/report.txt":
        "41003273165ce74fb8464c9f380473a50521a8893d6754df10f3b2f44e5c3a59",
    "train/additive/focalgatednet_glu_dcf/trace.json":
        "ebb9efb6285d94c8e06212752f519f3c3a31af889033ad015e3c83a0fa2dba6f",
    "train/additive/focalgatednet_glu_only/checkpoint.fgn":
        "e4043adba151333ee5269b585c7cc23d4be5ff8deff2ee04196efd3a7bf8a40a",
    "train/additive/focalgatednet_glu_only/report.json":
        "094cb41ef904e25f55ee14414cf546efecf5b54e37a5bbf4a9c2143af1132622",
    "train/additive/focalgatednet_glu_only/report.txt":
        "3fc4b7adb60fe04fdd94f6ecf645fb900b03df25998094eb57532402c385ff7f",
    "train/additive/focalgatednet_glu_only/trace.json":
        "1d1607fa544281b769b92c6c696a41f37c88e3e43434a1825f5df4f9b5c23c07",
    "train/additive/nlinear_glu_dcf/checkpoint.fgn":
        "3b9b66540fea0f73e701fd2c4c833f09578e4262f11d24976c93529cf090e8e5",
    "train/additive/nlinear_glu_dcf/report.json":
        "f2fe69feac5a1df28e8f34a040d982e6332d76d5dd7f851ae084c2abc5a416fc",
    "train/additive/nlinear_glu_dcf/report.txt":
        "e763a3943db13ae9762f9e722c0d29127de3e9d464d6230587f22d55a72ee2b7",
    "train/additive/nlinear_glu_dcf/trace.json":
        "a08d3c214eeaa5918754ead7e6a1d5e31a64b68c27170c355aa005c917c3b59b",
    "train/additive/transformer_glu_dcf/checkpoint.fgn":
        "c5e5f7a031cfdd38c1519868461c90068152b7238d5874dcde6c578ade15ffb5",
    "train/additive/transformer_glu_dcf/report.json":
        "0aef9dad90a752ab9fc6e09ae63d312b2a62df998fcc2313f3469b37aa244b48",
    "train/additive/transformer_glu_dcf/report.txt":
        "d03c58c373ad29b79800b86ff7c8c534ae1d8e705bb255ed7fb41710a0f9afb2",
    "train/additive/transformer_glu_dcf/trace.json":
        "ca36099638075d7fdb53067456539e5b9257f3a23d10acfc6fc4f99bd6b60755",
    "train/literal/dlinear_glu_dcf/checkpoint.fgn":
        "fd5d0c7006c569701c578f9b9000f38d64d14ad533db5843eb2ad5f2ddae129c",
    "train/literal/dlinear_glu_dcf/report.json":
        "7b38af8fbb3426744ef2cbb5eaeca53bb2c2d701db16114c86378530302eea36",
    "train/literal/dlinear_glu_dcf/report.txt":
        "9aa51ea6b85a2907789d997071d8275b71d6dc8d906b6799dd2f3651bda85406",
    "train/literal/dlinear_glu_dcf/trace.json":
        "74687790ac6ebb4b9cc7154c43e731a218405f29fb05a71afc076614bb52d997",
    "train/literal/focalgatednet_dcf_only/checkpoint.fgn":
        "127e6983e737e160d5fc6ec8789dfa1ac0d99ba401366699fc9768b7338f87e4",
    "train/literal/focalgatednet_dcf_only/report.json":
        "c89c66ea2c5365a466d0c089e21bb043224dd562d51554909f6ec7d5bb7f2502",
    "train/literal/focalgatednet_dcf_only/report.txt":
        "8eb0b9ca23720ed9917a8742b0dc235b7ef5c3cfb4038ed86d5d454b7d673662",
    "train/literal/focalgatednet_dcf_only/trace.json":
        "89a447dd6f41200eb72da3b396bd24c6dec19ad0f11a36170421e157bfc48921",
    "train/literal/focalgatednet_glu_dcf/checkpoint.fgn":
        "6c5291ccc342f956515a3323dbc825ecbe56ededde882fd937ea5d88c8fc4de2",
    "train/literal/focalgatednet_glu_dcf/report.json":
        "19c27961880cb5ee85471ed600fbee8b1a6de0e54cfac8ecbee7582a3faf77a7",
    "train/literal/focalgatednet_glu_dcf/report.txt":
        "f15d62b3c8c467c7d3300b5172f1d90452ca38e9ce1dda7af318b209a9e1b48a",
    "train/literal/focalgatednet_glu_dcf/trace.json":
        "5cdc862bc2360767ff4588fe98417334e8659af141581bc3b444c4ac56ce81c8",
    "train/literal/focalgatednet_glu_only/checkpoint.fgn":
        "10545e5196ffa2a49c341f9c2dda833276cc52db1a49d02ed78cc5ce3395980b",
    "train/literal/focalgatednet_glu_only/report.json":
        "6f997a1d9af0512460c32915ca999e32fc939b787f57a7a284842c97c617f142",
    "train/literal/focalgatednet_glu_only/report.txt":
        "3e610225af420cdf0a631af0167e0a74f7b566b31a3d549895452d75a7fe8d6f",
    "train/literal/focalgatednet_glu_only/trace.json":
        "37d2dcad6c98c6c743f92b2be21cfa5c89eae772a61f96357307ddd8912f74da",
    "train/literal/nlinear_glu_dcf/checkpoint.fgn":
        "051397775cbb6fc39a2451ab6b72ee9377a8fe84c0b18ec2e23770e3846379a7",
    "train/literal/nlinear_glu_dcf/report.json":
        "f2fe69feac5a1df28e8f34a040d982e6332d76d5dd7f851ae084c2abc5a416fc",
    "train/literal/nlinear_glu_dcf/report.txt":
        "e763a3943db13ae9762f9e722c0d29127de3e9d464d6230587f22d55a72ee2b7",
    "train/literal/nlinear_glu_dcf/trace.json":
        "a08d3c214eeaa5918754ead7e6a1d5e31a64b68c27170c355aa005c917c3b59b",
    "train/literal/transformer_glu_dcf/checkpoint.fgn":
        "72b0f8868b66868215bd4caff239ba5b9396880747cc3e7f6f916b1a7ec2e28a",
    "train/literal/transformer_glu_dcf/report.json":
        "30c4bdc66cd5a1e218e045a51606816f786d562efd22799c0d57bb378752d363",
    "train/literal/transformer_glu_dcf/report.txt":
        "74cb0657efee0c00d1ca97a0fc63c22690b083911be58668e8cd3d00f51eb45b",
    "train/literal/transformer_glu_dcf/trace.json":
        "3216e9f15d33724c8bb6fc81c57b2b53a48f4ed7c468b0bb720a2a19a0e04d7f",
}


def blas_config() -> str | None:
    """Config string the loaded OpenBLAS reports at run time, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                    "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def commands() -> list[list[str]]:
    cmds = [["synth", "--out", "gait.csv", "--cycles", "4", "--seed", "1"]]
    for mode in CONFIGS:
        for variant, ablation in PAIRS:
            run = f"{mode}/{variant}_{ablation}"
            cmds.append(["train", "--config", f"{mode}.json", "--variant", variant,
                         "--ablation", ablation, "--out", f"train/{run}"])
            cmds.append(["eval", "--checkpoint", f"train/{run}/checkpoint.fgn",
                         "--data", "gait.csv", "--config", f"{mode}.json",
                         "--out", f"eval/{run}"])
    cmds.append(["ablate", "--config", "additive.json", "--out", "ablate"])
    return cmds


def test_toy_session_bytes_match_the_recorded_hashes(tmp_path):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"hashes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}")
    blas = blas_config()
    if blas != RECORDED_BLAS:
        pytest.skip(f"hashes recorded with BLAS {RECORDED_BLAS!r}, running {blas!r}")
    for mode, model in CONFIGS.items():
        (tmp_path / f"{mode}.json").write_text(
            json.dumps({**RUN, "model": {**MODEL, **model}}, indent=2))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("FGN_SEED", None)
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(commands())],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert got == GOLDEN
