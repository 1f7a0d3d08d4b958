"""Pinned golden values of the reproducibility contract.

The other determinism tests compare one run with another, so they would
still pass if the PCG64 draw blocks, the draw order or the order of the
float operations changed. These tests pin the bytes themselves: the
SHA-256 of snapshot arrays, ``float.hex`` of the accumulated pool and the
SHA-256 of a small ``kinex sweep`` table and of whole ``kinex simulate``
output trees. A change that makes any of them fail changes every published
output, and is a change of the contract.
"""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from kinex import SimulationParams, run_simulation
from kinex.cli import main
from kinex.exchange import _BLOCK

# (params, {snapshot time: sha256 of the asset bytes}, float.hex(cumulative_pool))
RUN_GOLDENS = [
    (dict(n_agents=100, saving_rate=0.0, surplus_rate=0.0, t_max=20_000, seed=1),
     {20_000: "fe3a55a18730073e31b071d85f8b28b0ec5841121834ece8152d6275daf1e9e6"},
     "0x1.37e5f97917496p+11"),
    (dict(n_agents=100, saving_rate=0.9, surplus_rate=0.5, t_max=20_000, seed=2),
     {20_000: "2f31da1e828971be3303c46dc63eefc671a67790f75a625b1c936622051b33fd"},
     "0x1.d2dce7727c4e2p+11"),
    (dict(n_agents=100, saving_rate=0.0, surplus_rate=1.0, t_max=20_000, seed=3),
     {20_000: "fb5f464051d76df10e509a302a0a097b932e150d2445201ba63c7880e549d435"},
     "0x1.37fb19482281ap+15"),
    (dict(n_agents=2, saving_rate=1.0, surplus_rate=0.0, t_max=1_000, seed=5),
     {1_000: "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005"},
     "0x0.0p+0"),
    # crosses the first draw block, with snapshots on and either side of it
    (dict(n_agents=64, saving_rate=0.25, surplus_rate=1.0, t_max=_BLOCK + 5000, seed=4),
     {_BLOCK - 1: "49f9455c951a5eed082b340d8748fd349fc2ea943c557b4486bb35a8f23cb31f",
      _BLOCK: "7e0366ee87c45dbfc0aa4e430f3c4218166c71239cd1bd6f4936ad06df65f874",
      _BLOCK + 1: "d5bc23b7d163717bfc9f635f76dcecc0d866ae155bb29ba444ba76651cae6dd9",
      _BLOCK + 5000: "549304ee7d166d90c9a02d44893ebc9071a45280dd5753376426d53c8ca2ac59"},
     "0x1.8f4cf08495927p+17"),
]

SWEEP_CONFIG = {
    "sweep": {"lambda_values": [0.2, 1.0], "gamma_values": [0.5, 1.0],
              "n_agents": 80, "t_max": 1500, "replicates": 2, "base_seed": 4},
}
SWEEP_CSV_SHA256 = "be5aa62c22af91061a84a67fb8413c87d2df07c1bc7c244676f3d26fd3334fea"

# (output format, simulate.saving_rate) -> sha256 over the whole output tree of a
# small `kinex simulate`; at saving_rate 1.0 no agent moves, so every moment fit
# is undefined and the gamma_fits shape/scale cells are empty
SIMULATE_TREE_SHA256 = {
    ("csv", 0.25): "2d4a2c1f6b72b48ef6e3431be12b5bfd34612aaa1169b7fdecd22e27e78695eb",
    ("json", 0.25): "4d0c39bf2d1e4d97fea581d7297c7f290b80b35fbbc0815e28eb0620b0bb3223",
    ("csv", 1.0): "9621f89a058e3e20ed93f0da7e4c51ce2378abd997462ff202b6cc6e616e95c2",
    ("json", 1.0): "7d041f2d14dbfaaecc12cced0ec1ec630a56141365cc046ec9c8fdec96127739",
}


def test_block_size_is_pinned():
    # the goldens below assume draws in blocks of 2**17 steps
    assert _BLOCK == 1 << 17


@pytest.mark.parametrize("kwargs, snapshot_digests, pool_hex", RUN_GOLDENS,
                         ids=[f"lam{k['saving_rate']}-gam{k['surplus_rate']}-T{k['t_max']}"
                              for k, _, _ in RUN_GOLDENS])
def test_run_reproduces_pinned_digests(kwargs, snapshot_digests, pool_hex):
    params = SimulationParams(snapshot_times=tuple(snapshot_digests), **kwargs)
    result = run_simulation(params)
    got = {t: hashlib.sha256(result.snapshots[t].tobytes()).hexdigest()
           for t in snapshot_digests}
    assert got == snapshot_digests
    assert float.hex(result.cumulative_pool) == pool_hex


def test_sweep_table_reproduces_pinned_digest(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    for threads in ("1", "2"):
        monkeypatch.setenv("KINEX_THREADS", threads)
        out = tmp_path / threads
        with pytest.warns(UserWarning, match="tied"):  # the lambda=1 cells never move
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_CSV_SHA256


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("fmt, saving_rate", list(SIMULATE_TREE_SHA256),
                         ids=[f"{fmt}-lam{lam}" for fmt, lam in SIMULATE_TREE_SHA256])
def test_simulate_tree_reproduces_pinned_digest(tmp_path, monkeypatch, fmt, saving_rate):
    # a relative --out keeps the output dir echoed in resolved_config.json fixed
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({
        "simulate": {"n_agents": 50, "t_max": 2000, "saving_rate": saving_rate, "seed": 3},
        "output": {"format": fmt},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lambda=1 ties every rank
        assert main(["simulate", "--config", "config.json", "--out", "out"]) == 0
    assert _tree_sha256(tmp_path / "out") == SIMULATE_TREE_SHA256[fmt, saving_rate]
