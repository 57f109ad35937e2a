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
        "21ae54b12e2bc30afa3ab3df5d9deca6f59c3dbeb78e1be73b7ab95ff1c86b3c",
    "eval/additive/dlinear_glu_dcf/report.txt":
        "46fbf33e942374a0b32ccd95fe156a3435ba96145ff3be631cd7819658ef0f99",
    "eval/additive/focalgatednet_dcf_only/report.json":
        "aeb34540b3287e79ee12a3ebe62acbed7be213e6afe7ebf9e172ff57656b5cd5",
    "eval/additive/focalgatednet_dcf_only/report.txt":
        "5c771be083fad6a5d03469841f684f3cdbb117b874489ca7fe7ae9a206240f43",
    "eval/additive/focalgatednet_glu_dcf/report.json":
        "ae2658b7a198bb4629ead03c059e016397b3ed87b988c1bb456739c3edb25c14",
    "eval/additive/focalgatednet_glu_dcf/report.txt":
        "67d118bd128bbd1402e984e3666aae35efbe8749e27b30f7272043e12df23a81",
    "eval/additive/focalgatednet_glu_only/report.json":
        "3ace5605f10af8d871aaeaf2548bde939faf8e4a429622ce0b6a32ded4021fff",
    "eval/additive/focalgatednet_glu_only/report.txt":
        "18ce7557d12acbaafa6307ba8b713040df20c09eff22c5704a82fde351954da2",
    "eval/additive/nlinear_glu_dcf/report.json":
        "0747c7ada18b5039a773f2ecc9a1d860053a13ea42d243aa5eb3dcd10ce21268",
    "eval/additive/nlinear_glu_dcf/report.txt":
        "521bc2e2980954160d5b852e7d863bb2287bcb7423bd3e5b0b41301cbe3ec4af",
    "eval/additive/transformer_glu_dcf/report.json":
        "4a39bd563ce29d94b1f75ee4f5c3b07e73584347de7ff92586a628c363914feb",
    "eval/additive/transformer_glu_dcf/report.txt":
        "a1fc8ac1f7e99047132e26cbdffdf81d6b556fb1d3be47718b98351dc42d04af",
    "eval/literal/dlinear_glu_dcf/report.json":
        "21ae54b12e2bc30afa3ab3df5d9deca6f59c3dbeb78e1be73b7ab95ff1c86b3c",
    "eval/literal/dlinear_glu_dcf/report.txt":
        "46fbf33e942374a0b32ccd95fe156a3435ba96145ff3be631cd7819658ef0f99",
    "eval/literal/focalgatednet_dcf_only/report.json":
        "e2cd80158a6a7d8d803d2c10202ad8b806157d060ef77d3f2929bed1589634cd",
    "eval/literal/focalgatednet_dcf_only/report.txt":
        "0dc6981a291e09b2f22d0bdf1754733ebd1857ef77bad908d2f18efaea171780",
    "eval/literal/focalgatednet_glu_dcf/report.json":
        "70d0fb1f34ccff9ce88e42599680a68e86f71f896f7ea2877ffdffa7223bd306",
    "eval/literal/focalgatednet_glu_dcf/report.txt":
        "b465706e9692b39b2552f70578d374a6140931ea737d3803071612b63b04d1ee",
    "eval/literal/focalgatednet_glu_only/report.json":
        "1214d4b3ca19b45989b1a7807fd49405d54b10b5f6cbc947e397f778e1fe5547",
    "eval/literal/focalgatednet_glu_only/report.txt":
        "331968c7d05c9da992f374cb687e522cda7a2f38d7a074a549ddfc23b8f0e3ca",
    "eval/literal/nlinear_glu_dcf/report.json":
        "0747c7ada18b5039a773f2ecc9a1d860053a13ea42d243aa5eb3dcd10ce21268",
    "eval/literal/nlinear_glu_dcf/report.txt":
        "521bc2e2980954160d5b852e7d863bb2287bcb7423bd3e5b0b41301cbe3ec4af",
    "eval/literal/transformer_glu_dcf/report.json":
        "e494bc11327fd1db54bd0139bb8f3a40e8451d96f33f454fe43a539c93c419eb",
    "eval/literal/transformer_glu_dcf/report.txt":
        "d10349f9ddc5468f2584017b192c9710b97e38c279dbdde7ed551f355883e28d",
    "gait.csv":
        "a91789219afbf9d75f1ae48bd68004f7adb378a396a33457d6e30d41a06c8c38",
    "literal.json":
        "ddea9aa4d227ac8faac09dd8ac0bfcdb370095e2027bb0d951afcfe5158d8127",
    "train/additive/dlinear_glu_dcf/checkpoint.fgn":
        "69d8a1a606f82d2d83089eb30c3285d85604009bab07a90db0c5af309b875bdd",
    "train/additive/dlinear_glu_dcf/report.json":
        "0e1c20e08ca39d2bed5d4fef89c3d30581c3a482a808f9cc384889ac03f01adb",
    "train/additive/dlinear_glu_dcf/report.txt":
        "9aa51ea6b85a2907789d997071d8275b71d6dc8d906b6799dd2f3651bda85406",
    "train/additive/dlinear_glu_dcf/trace.json":
        "74687790ac6ebb4b9cc7154c43e731a218405f29fb05a71afc076614bb52d997",
    "train/additive/focalgatednet_dcf_only/checkpoint.fgn":
        "641de9e7f77020057df4a3c9fd4255a0f358e475c02cca5724970034a3450517",
    "train/additive/focalgatednet_dcf_only/report.json":
        "96e9ec66f87b8a7546ea85912b7c15db369a5af9569cb9b547192cd73013189b",
    "train/additive/focalgatednet_dcf_only/report.txt":
        "0b69406f7dbff9ce18f93b4bfee79129f6cdacc8218c3bb297f65c58be96fd8e",
    "train/additive/focalgatednet_dcf_only/trace.json":
        "b30ed39ed4cefecf058198c6d65a82fefcf8fefbc38c171b549123235b914b7d",
    "train/additive/focalgatednet_glu_dcf/checkpoint.fgn":
        "1ea74ed37cf365da7165dfa4e8d4fac2c877815b61330533e3e95632219e4105",
    "train/additive/focalgatednet_glu_dcf/report.json":
        "26009e6bb8484c33555d49f5456426cda82bfa54b6186c82d604ee4a8f168938",
    "train/additive/focalgatednet_glu_dcf/report.txt":
        "51a42409ac91537407dfd4e304af07a03ca2f7fd1886d9136fcb412e938fcd07",
    "train/additive/focalgatednet_glu_dcf/trace.json":
        "ac725796bbd5fe3a03a4ab99ed6a3d190299b92a9e136f906bab9c64ed2f0396",
    "train/additive/focalgatednet_glu_only/checkpoint.fgn":
        "e4043adba151333ee5269b585c7cc23d4be5ff8deff2ee04196efd3a7bf8a40a",
    "train/additive/focalgatednet_glu_only/report.json":
        "f4ede1cbc9c3139ed52d193b69e8188a4df522c783d696fa5938666780abfeae",
    "train/additive/focalgatednet_glu_only/report.txt":
        "3fc4b7adb60fe04fdd94f6ecf645fb900b03df25998094eb57532402c385ff7f",
    "train/additive/focalgatednet_glu_only/trace.json":
        "1d1607fa544281b769b92c6c696a41f37c88e3e43434a1825f5df4f9b5c23c07",
    "train/additive/nlinear_glu_dcf/checkpoint.fgn":
        "3b9b66540fea0f73e701fd2c4c833f09578e4262f11d24976c93529cf090e8e5",
    "train/additive/nlinear_glu_dcf/report.json":
        "76acdeeb9f621dc12ae2c5c355e90a5532b26fc1088da21a47159d892a011841",
    "train/additive/nlinear_glu_dcf/report.txt":
        "e763a3943db13ae9762f9e722c0d29127de3e9d464d6230587f22d55a72ee2b7",
    "train/additive/nlinear_glu_dcf/trace.json":
        "a08d3c214eeaa5918754ead7e6a1d5e31a64b68c27170c355aa005c917c3b59b",
    "train/additive/transformer_glu_dcf/checkpoint.fgn":
        "c5e5f7a031cfdd38c1519868461c90068152b7238d5874dcde6c578ade15ffb5",
    "train/additive/transformer_glu_dcf/report.json":
        "25b80b647a5e7986d828d9e3be09b0b8fd07721f8c2276e1215d767afc233d01",
    "train/additive/transformer_glu_dcf/report.txt":
        "d03c58c373ad29b79800b86ff7c8c534ae1d8e705bb255ed7fb41710a0f9afb2",
    "train/additive/transformer_glu_dcf/trace.json":
        "ca36099638075d7fdb53067456539e5b9257f3a23d10acfc6fc4f99bd6b60755",
    "train/literal/dlinear_glu_dcf/checkpoint.fgn":
        "fd5d0c7006c569701c578f9b9000f38d64d14ad533db5843eb2ad5f2ddae129c",
    "train/literal/dlinear_glu_dcf/report.json":
        "0e1c20e08ca39d2bed5d4fef89c3d30581c3a482a808f9cc384889ac03f01adb",
    "train/literal/dlinear_glu_dcf/report.txt":
        "9aa51ea6b85a2907789d997071d8275b71d6dc8d906b6799dd2f3651bda85406",
    "train/literal/dlinear_glu_dcf/trace.json":
        "74687790ac6ebb4b9cc7154c43e731a218405f29fb05a71afc076614bb52d997",
    "train/literal/focalgatednet_dcf_only/checkpoint.fgn":
        "20e0741ea65faf28b67ac20b275252142191415f9cd2e6c7adeba27db3c3f204",
    "train/literal/focalgatednet_dcf_only/report.json":
        "734d2629f6ed727d7ba0901ba5b591916eeadf50a266f50934bdf67a7f969c1d",
    "train/literal/focalgatednet_dcf_only/report.txt":
        "3d490a0ef27c073322c44d799039cf044e330aa8b121ea51297a15b65a124755",
    "train/literal/focalgatednet_dcf_only/trace.json":
        "d2d2168528b072648d4f7f0e29f9f6844d4a8535fdb754695e0f0e582a653e0d",
    "train/literal/focalgatednet_glu_dcf/checkpoint.fgn":
        "fa664f7b87b716f68ffa3eae7c6b534bf2c1f20a1b256717513c1ba413be9ad6",
    "train/literal/focalgatednet_glu_dcf/report.json":
        "b8b776400aafb7c64fd899c1f7eec523cea3fdc92c44a7a9869d84cac1deaa93",
    "train/literal/focalgatednet_glu_dcf/report.txt":
        "53018363dadb23289310fa134b092c3ceb1eb7cb58c6a4c7db155d977b76f0ee",
    "train/literal/focalgatednet_glu_dcf/trace.json":
        "ed2623d66a9a949454be0e23851c76bb86b861bd9669d571f2713eacc8956e40",
    "train/literal/focalgatednet_glu_only/checkpoint.fgn":
        "10545e5196ffa2a49c341f9c2dda833276cc52db1a49d02ed78cc5ce3395980b",
    "train/literal/focalgatednet_glu_only/report.json":
        "3390ddcfeb2b6d82cdf4442b00e79a450b05cfd731922122f6905aa80159aab3",
    "train/literal/focalgatednet_glu_only/report.txt":
        "3e610225af420cdf0a631af0167e0a74f7b566b31a3d549895452d75a7fe8d6f",
    "train/literal/focalgatednet_glu_only/trace.json":
        "37d2dcad6c98c6c743f92b2be21cfa5c89eae772a61f96357307ddd8912f74da",
    "train/literal/nlinear_glu_dcf/checkpoint.fgn":
        "051397775cbb6fc39a2451ab6b72ee9377a8fe84c0b18ec2e23770e3846379a7",
    "train/literal/nlinear_glu_dcf/report.json":
        "76acdeeb9f621dc12ae2c5c355e90a5532b26fc1088da21a47159d892a011841",
    "train/literal/nlinear_glu_dcf/report.txt":
        "e763a3943db13ae9762f9e722c0d29127de3e9d464d6230587f22d55a72ee2b7",
    "train/literal/nlinear_glu_dcf/trace.json":
        "a08d3c214eeaa5918754ead7e6a1d5e31a64b68c27170c355aa005c917c3b59b",
    "train/literal/transformer_glu_dcf/checkpoint.fgn":
        "72b0f8868b66868215bd4caff239ba5b9396880747cc3e7f6f916b1a7ec2e28a",
    "train/literal/transformer_glu_dcf/report.json":
        "7cbbaa32a44cee40726187cc2daa1f60b7b95b1b9343769bd9910667e66c1fe1",
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
