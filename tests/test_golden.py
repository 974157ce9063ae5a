"""Golden outputs: the SHA-256 of every CSV from five short pinned runs.

A rerun-equals-rerun check cannot see a refactor that drifts both runs the
same way; these digests can. They hold for one numpy/BLAS build, so a
digest that changes on purpose is updated together with its reason.
"""
import configparser
import ctypes
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmlearn.cli import run_experiment

ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "configs" / "desk.ini"


def desk_parser(**experiment) -> configparser.ConfigParser:
    """configs/desk.ini cut to 20 rounds and seeds 1, 2."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(DESK)
    parser["experiment"]["seeds"] = "1, 2"
    parser["hyper"]["rounds"] = "20"
    parser["experiment"].update(experiment)
    return parser


def audit_parser() -> configparser.ConfigParser:
    """The desk world with attackers screened and every diagnostic on."""
    parser = desk_parser(variants="cbdsl_gsc, cbdsl_full")
    parser["attack"].update(strategy="fake_loss_garbage", attackers="0, 3", verification="on")
    parser["diagnostics"].update(cosine_stats="on", divergence="on", lipschitz_probes="16")
    return parser


def fedavg_diag_parser() -> configparser.ConfigParser:
    """Both FedAvg variants beside a swarm one, with cosine and divergence columns on."""
    parser = desk_parser(variants="fedavg, fedavg_gtr, cbdsl_full")
    parser["diagnostics"].update(cosine_stats="on", divergence="on", lipschitz_probes="16")
    return parser


def mlp_iid_parser() -> configparser.ConfigParser:
    """All five variants on an MLP over iid pools, per-worker init, linear inertia.

    Pins the hidden layers, the iid partition with the shared training set
    appended to each pool, per-worker initial models and the linear schedule.
    """
    parser = desk_parser()
    parser["data"]["partition"] = "iid"
    # the iid split reads no shard keys
    del parser["data"]["num_shards"], parser["data"]["shards_per_worker"]
    parser["model"].update(kind="mlp", hidden_dims="16", init="per_worker")
    parser["hyper"].update(inertia="linear", alpha="0.05")
    return parser


def unverified_scaled_parser() -> configparser.ConfigParser:
    """Scaled forgeries with verification off: the server trusts every claim."""
    parser = desk_parser(variants="cbdsl_plain, cbdsl_gsc, cbdsl_full")
    parser["attack"].update(strategy="fake_loss_scaled", attackers="1, 4", verification="off")
    return parser


def write_config(parser: configparser.ConfigParser, tmp_path: Path) -> Path:
    config = tmp_path / "golden.ini"
    with open(config, "w", encoding="utf-8") as f:
        parser.write(f)
    return config


def tree_digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def csv_digests(parser: configparser.ConfigParser, tmp_path: Path) -> dict[str, str]:
    config = write_config(parser, tmp_path)
    out = tmp_path / "out"
    assert run_experiment(str(config), output_dir=str(out)) == 0
    return tree_digests(out)


# The CSV bytes depend on the machine code numpy and OpenBLAS pick at run
# time (BLAS kernels, numpy's SIMD exp/log) and on the BLAS thread count,
# not only on code and config: the 784-input GEMMs of a wide MLP run write
# different bytes under one thread (the digests below, at desk and audit
# shapes, do not move with it). This is the arithmetic they were recorded
# under.
RECORDED_ARITHMETIC = (
    "numpy 2.4.6; dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR; "
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64; "
    "core SkylakeX; blas threads 2"
)


def _openblas_get(name: str, restype):
    """``get_<name>()`` of the OpenBLAS bundled with numpy, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (f"scipy_openblas_get_{name}64_", f"openblas_get_{name}64_",
                       f"openblas_get_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def _openblas_string(name: str) -> str:
    value = _openblas_get(name, ctypes.c_char_p)
    return "unknown" if value is None else value.decode()


def arithmetic_fingerprint() -> str:
    """numpy's version and enabled SIMD dispatch targets, the OpenBLAS config
    string, the core it picked and its thread count."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        dispatch = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    except ImportError:
        dispatch = "unknown"
    threads = _openblas_get("num_threads", ctypes.c_int)
    return (f"numpy {np.__version__}; dispatch {dispatch}; "
            f"{_openblas_string('config')}; core {_openblas_string('corename')}; "
            f"blas threads {'unknown' if threads is None else threads}")


def assert_digests(got: dict[str, str], expected: dict[str, str]):
    differing = sorted(name for name in expected.keys() | got.keys()
                       if got.get(name) != expected.get(name))
    assert not differing, (
        f"CSV bytes differ from the golden digests: {differing}\n"
        f"  digests recorded under: {RECORDED_ARITHMETIC}\n"
        f"  arithmetic in use:      {arithmetic_fingerprint()}"
    )


DESK_DIGESTS = {
    "runs/cbdsl_full_1.csv": "6b75476b196e78bd2c1bb62377bb6e0589d0047bed158a47a20448de975e2b83",
    "runs/cbdsl_full_2.csv": "cc650cc52cddab32e6dcc8ea9980c6512a955ea0f0250fe10ac17369eedba289",
    "runs/cbdsl_gsc_1.csv": "d0e8187572f5074068216b94d6f4356029a7500e75afc939867618688f076f51",
    "runs/cbdsl_gsc_2.csv": "c198ca18c4896f1a8d84ca3ae7bf17bb0cd779d99383348063083df2da96554e",
    "runs/cbdsl_plain_1.csv": "460808b0d4f3438f139015d0471b683779b8688d41e78cb2a5637321a5a53011",
    "runs/cbdsl_plain_2.csv": "c76dd72b3914fc0242994892feb74267f73431cd8d42ad742f2cd87bf7b601a0",
    "runs/fedavg_1.csv": "00f3cce9ea3631cbd0bc2fe2998107902c42082df1bf7d41b682bed8e7222100",
    "runs/fedavg_2.csv": "67a88fd2411ceafc9054309f12fb19aaa83c77fdb432242e438cf298f0763e00",
    "runs/fedavg_gtr_1.csv": "8c9f1c7cd3225bacc37bdfb21506275666ff94082ab7ba40b77067051cf8bec5",
    "runs/fedavg_gtr_2.csv": "6969b46e0a40fbf47ade4af379befd18682b7c43587eb1be0532b6af11cdc6bb",
    "summary.csv": "79d92b631d20489b16c5c48eab404ff87f5647626df49238cc883b25b7822968",
}

AUDIT_DIGESTS = {
    "diagnostics.csv": "1f3b01ffd1741791db1c2352fb5d8e60c2832b10bea874786335b3cd7b3016fa",
    "runs/cbdsl_full_1.csv": "556224517d4844329bea6400f22b69e77b550c197757746da56b3557a05f4966",
    "runs/cbdsl_full_2.csv": "60d75f181d9cd79db60a5c8e1d98cace9c991b4d7329bec3a497de2920031b94",
    "runs/cbdsl_gsc_1.csv": "dd6aa1e4694218d6f06cc4f68dd7e78032368880ebbe68343a4bfe6971c93470",
    "runs/cbdsl_gsc_2.csv": "e1993837af68efb3da24646a960a29c724a5064eb0124d9a2eb51badb580c020",
    "summary.csv": "b2b7f6e6eeaae7135b34a2a829a2df9d8d4ae16b030f1fc2c7859547e3c48106",
}

FEDAVG_DIAG_DIGESTS = {
    "diagnostics.csv": "1ba03bf5ef1822387ffcd970cb8c701c5c0f14a34778a3598417b3da293de668",
    "runs/cbdsl_full_1.csv": "c16bc64a83d21957fa8299f990e862dda09b2585adde92b357082775dd511fd8",
    "runs/cbdsl_full_2.csv": "d03ab4efae809bac1891bc60d6ab0ddbf46c74d6c2eb4605ce081951bc477a31",
    "runs/fedavg_1.csv": "816e257ee7b6816edc6cff195d7fe4ff157183e06d201dc63b7d6fc545a5d2d9",
    "runs/fedavg_2.csv": "041f817461f69fb454d1306852d6a0da20b5877c22b25978be65533e5c58c7e7",
    "runs/fedavg_gtr_1.csv": "26a7051ef2fb2707524ca64687e89bb2d2ee8c14d382eb7adcc1509854a40f38",
    "runs/fedavg_gtr_2.csv": "9890c9ed043912a4b5cbfddee4e6c71f3548761783eba18605daf22a25c8af79",
    "summary.csv": "241e090ace3525952d069954785b02d51910c262e0491cc8706a7bd0130ac786",
}

MLP_IID_DIGESTS = {
    "runs/cbdsl_full_1.csv": "fef8a7c982e3d7600ccef9270a90a9a409c680408ca46901325d3fb4af0b345f",
    "runs/cbdsl_full_2.csv": "fafa6132d39d3d738f83496dcf34241735be6bcc7e4e81bd8c0271127cb0f84e",
    "runs/cbdsl_gsc_1.csv": "141458a3df3a46603047818c30a5f1649fc20264464d9ab9a8e4d7b2be57f826",
    "runs/cbdsl_gsc_2.csv": "f105015fe1d8be30699b2990b13b746a412b58510f8534dbf2d494cfe40fe2a8",
    "runs/cbdsl_plain_1.csv": "d70f60d9e21678eeac21e0989c5ff6bdc3bd4856fae62347befd4dfad592d0a1",
    "runs/cbdsl_plain_2.csv": "e0f6b7faf6f6aab0922322dc7b2660cefad1d049303b03ae330b6f2d598f8ec9",
    "runs/fedavg_1.csv": "2ac4f6f25586d1f4ef748ea8cc6e10eb3963cd23a11f4119f98a73af08a9395e",
    "runs/fedavg_2.csv": "126e87fc64e8fc8c1067475ad4003dd8a50694d25e4541a3c9744ff51a951fd3",
    "runs/fedavg_gtr_1.csv": "1ef734d469b2f905864476fb56c36b0f4474131e49b3980a5977c8e2d3eebbf2",
    "runs/fedavg_gtr_2.csv": "0a21c59ff84b4dc513032e61e8774672ee49292cca69a777301f37ee70a0c934",
    "summary.csv": "49b15d125871137de4ab2398774aaa9d36b0e171d1d57f3fc6c25f1b8363d043",
}

UNVERIFIED_SCALED_DIGESTS = {
    "runs/cbdsl_full_1.csv": "7474a0a4c8f03728a41ddb6393f5ee611bfd1b88654ba8bf94c77746a2f594a3",
    "runs/cbdsl_full_2.csv": "99f3627f8cd87277d180b2ceb3e0187183ea540f5cb66587e006e3d4125d4120",
    "runs/cbdsl_gsc_1.csv": "fe11c82c1d05fd09072ca050bbaca6984321b6b958a53dbdfb147f9e2c3267a5",
    "runs/cbdsl_gsc_2.csv": "9021efbe006469ef99beb8ae01adc3b12f4ecd5972cb4f7f738fc1a7235553eb",
    "runs/cbdsl_plain_1.csv": "6b84057354f70bb7a0a1955ec917542c1df21e957b32a7a18e5159fc5ea94606",
    "runs/cbdsl_plain_2.csv": "aca59e9bd2c61f4b8ff1fbcd5d5dd5fa3673a20e8be3335715e6daa23b983ddd",
    "summary.csv": "2618c1c65a4f4c39de0cf4fc197eaedb4a2c008bbe0088f29c7102188b2a9d35",
}


def test_a_mismatch_names_both_arithmetic_fingerprints():
    assert arithmetic_fingerprint() == arithmetic_fingerprint()
    assert re.search(r"; blas threads (\d+|unknown)$", arithmetic_fingerprint())
    with pytest.raises(AssertionError) as failure:
        assert_digests({"summary.csv": "0"}, {"summary.csv": "1"})
    message = str(failure.value)
    assert "['summary.csv']" in message
    assert RECORDED_ARITHMETIC in message and arithmetic_fingerprint() in message


def test_desk_digests(tmp_path):
    assert_digests(csv_digests(desk_parser(), tmp_path), DESK_DIGESTS)


def test_audit_digests(tmp_path):
    assert_digests(csv_digests(audit_parser(), tmp_path), AUDIT_DIGESTS)


def test_fedavg_diagnostics_digests(tmp_path):
    assert_digests(csv_digests(fedavg_diag_parser(), tmp_path), FEDAVG_DIAG_DIGESTS)


def test_mlp_iid_digests(tmp_path):
    assert_digests(csv_digests(mlp_iid_parser(), tmp_path), MLP_IID_DIGESTS)


def test_unverified_scaled_digests(tmp_path):
    assert_digests(csv_digests(unverified_scaled_parser(), tmp_path), UNVERIFIED_SCALED_DIGESTS)


def test_audit_digests_in_fresh_processes(tmp_path):
    """The audit bytes do not depend on the process: a fresh interpreter with
    hash seed 0 and the default BLAS threads, and one with hash seed 1 and a
    single BLAS thread, both write the pinned digests."""
    config = write_config(audit_parser(), tmp_path)
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    for name, extra in (("hash0", {"PYTHONHASHSEED": "0"}),
                        ("hash1_one_thread", {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "swarmlearn", "run", str(config), "--output-dir", str(out)],
            env={**base, **extra}, check=True, capture_output=True, timeout=300,
        )
        assert_digests(tree_digests(out), AUDIT_DIGESTS)
