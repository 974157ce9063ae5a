"""Golden outputs: the SHA-256 of every CSV from three short pinned runs.

A rerun-equals-rerun check cannot see a refactor that drifts both runs the
same way; these digests can. They hold for one numpy/BLAS build, so a
digest that changes on purpose is updated together with its reason.
"""
import configparser
import hashlib
from pathlib import Path

from swarmlearn.cli import run_experiment

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"


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


def csv_digests(parser: configparser.ConfigParser, tmp_path: Path) -> dict[str, str]:
    config = tmp_path / "golden.ini"
    with open(config, "w", encoding="utf-8") as f:
        parser.write(f)
    out = tmp_path / "out"
    assert run_experiment(str(config), output_dir=str(out)) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def assert_digests(got: dict[str, str], expected: dict[str, str]):
    differing = sorted(name for name in expected.keys() | got.keys()
                       if got.get(name) != expected.get(name))
    assert not differing, f"CSV bytes differ from the golden digests: {differing}"


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
    "diagnostics.csv": "b92bc42551b2357dc76e6867ebe165a27ce6cd61e7d429d7c7a2a8cd46c4551f",
    "runs/cbdsl_full_1.csv": "556224517d4844329bea6400f22b69e77b550c197757746da56b3557a05f4966",
    "runs/cbdsl_full_2.csv": "60d75f181d9cd79db60a5c8e1d98cace9c991b4d7329bec3a497de2920031b94",
    "runs/cbdsl_gsc_1.csv": "dd6aa1e4694218d6f06cc4f68dd7e78032368880ebbe68343a4bfe6971c93470",
    "runs/cbdsl_gsc_2.csv": "e1993837af68efb3da24646a960a29c724a5064eb0124d9a2eb51badb580c020",
    "summary.csv": "b2b7f6e6eeaae7135b34a2a829a2df9d8d4ae16b030f1fc2c7859547e3c48106",
}

FEDAVG_DIAG_DIGESTS = {
    "diagnostics.csv": "128b3a1c18cfd2eed4d3918069a2e9625ae3e197637613b57869dbfdf212597f",
    "runs/cbdsl_full_1.csv": "c16bc64a83d21957fa8299f990e862dda09b2585adde92b357082775dd511fd8",
    "runs/cbdsl_full_2.csv": "d03ab4efae809bac1891bc60d6ab0ddbf46c74d6c2eb4605ce081951bc477a31",
    "runs/fedavg_1.csv": "816e257ee7b6816edc6cff195d7fe4ff157183e06d201dc63b7d6fc545a5d2d9",
    "runs/fedavg_2.csv": "041f817461f69fb454d1306852d6a0da20b5877c22b25978be65533e5c58c7e7",
    "runs/fedavg_gtr_1.csv": "26a7051ef2fb2707524ca64687e89bb2d2ee8c14d382eb7adcc1509854a40f38",
    "runs/fedavg_gtr_2.csv": "9890c9ed043912a4b5cbfddee4e6c71f3548761783eba18605daf22a25c8af79",
    "summary.csv": "241e090ace3525952d069954785b02d51910c262e0491cc8706a7bd0130ac786",
}


def test_desk_digests(tmp_path):
    assert_digests(csv_digests(desk_parser(), tmp_path), DESK_DIGESTS)


def test_audit_digests(tmp_path):
    assert_digests(csv_digests(audit_parser(), tmp_path), AUDIT_DIGESTS)


def test_fedavg_diagnostics_digests(tmp_path):
    assert_digests(csv_digests(fedavg_diag_parser(), tmp_path), FEDAVG_DIAG_DIGESTS)
