"""Golden hashes of the pre-selection and assembly outputs.

For a fixed event set (multiplicity 10, 100 and 200, seed 2024, three
events each, calibrated as ``reconstruct`` calibrates) the SHA-256 of each
objective's ``linear`` and ``upper_triangle()`` bytes and of the doublet
and triplet CSVs that ``--debug-dump`` writes must stay as recorded. Any
change to doublet, triplet or variable order, or to the last bit of an
angle or a coefficient, changes a hash. The calibration itself (dx/x0
window and s_max) is held as ``float.hex`` strings, since a one-ulp change
in the window need not move any doublet across its edge.

The same events, reconstructed with the exact solver, pin the track
building: the SHA-256 of each event's ``tracks.csv`` rows, with chi2 and
energy written as ``float.hex`` so that a one-ulp change shows.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from qubotrack.config import RunConfig
from qubotrack.geometry import build_geometry
from qubotrack.io import write_doublet_debug_csv, write_triplet_debug_csv
from qubotrack.pipeline import calibrate, reconstruct_event, simulate_events
from qubotrack.preselect import build_doublets, build_triplets
from qubotrack.qubo import assemble_qubo

GOLDEN = {
    10: [
        {
            "linear":
                "9f658718dde1e9cc7b111ba351258aa73b0b8cf99a26ce575f20cecdbfa24948",
            "upper_triangle":
                "1e7abb7066aa43a0439f66db74a7cda39323e6e5bc09e4cfe3571ff83652bfb4",
            "doublets_csv":
                "684f5e0479ddac29f98b576e8d127f1ced3fe012f8f85270330ce25290a1e08c",
            "triplets_csv":
                "50444852414e31e9665155f5cdd3404ffcd515846ead2e72c87df789cfee929d",
        },
        {
            "linear":
                "64dba4469200a68b767cae7fa8044759f2b60bd51dde94e29356990f28dd552a",
            "upper_triangle":
                "156f1f88a737780147b0453778a03219d80e473543848c90fddc56cdd99ce6a1",
            "doublets_csv":
                "55d868e1d47c3e9af1913390c7a8850a766d64eb4304da0427e636a631864266",
            "triplets_csv":
                "c7d9577f867179655025c7c6eac5ebe217b7f19f5378e6d92767ab7fc6c6f304",
        },
        {
            "linear":
                "8664738830c21ea4b5043aa217bc2073720c50c5f7be559daf3cec017a41755a",
            "upper_triangle":
                "94ed50b388e217cdb3bcaf332e7459257ff85ebed8f5bfda5394eb37519b1168",
            "doublets_csv":
                "d771d626cb8af0a437f6a06bdb5b88363e7895cbd4d83ac82c25ab31bc547109",
            "triplets_csv":
                "b60f1473a5f6a284a9007ee5debdbe942ec236c0ba947d606e114782f8c767fe",
        },
    ],
    100: [
        {
            "linear":
                "a2b9ea369ba9c42b3867155c4673d21750a0f3127063a3f90030ceaf69d50b15",
            "upper_triangle":
                "2a2a347645823fd8deaf0b375e29e2c6bc52aeb7e3fcf68ac165abcb8d35e9fc",
            "doublets_csv":
                "88d9bb4a810ad788628107d8ff319437b33fca6d0660f4ed0a0956bf20d00692",
            "triplets_csv":
                "2d2983008946b21b6073f315821766895d0b784edc7ae7c760e36b8ade2bced8",
        },
        {
            "linear":
                "d9fd7895cd0ef7f961761c1a75a943c91b8fd10d5aa4ee4dc21dafb3884d7391",
            "upper_triangle":
                "b803f625369cf3ddb1f924369c93d24378860a43d3bd318a1430cb02a02a2e1a",
            "doublets_csv":
                "31193c4c2583056b1541aa27b2eb94a999a50aba6d430295340d05bc24e92396",
            "triplets_csv":
                "d06223700155e0f40f8e4f43a920d0958ac15b3002b4106612861816c86df7ac",
        },
        {
            "linear":
                "6d82d3324b21f24f6bbf91f9d543beba6d7995743d8bf28d377f89c96286759e",
            "upper_triangle":
                "d29a828186886e510c97584cd9d42b5c1d5b7b3d859283b3f15d0713e6035cb0",
            "doublets_csv":
                "c589838f8916da3da49e1ef3ccf489a8f46318a539c17eb4884007035e2bb44e",
            "triplets_csv":
                "873d3714f34c3242ab22e56c87608506478f0e8d22aa6f677ac8a044e2e1e6de",
        },
    ],
    200: [
        {
            "linear":
                "c6d422b4555aebf451ecb71fe6f53b4cfb9db234adb40dd2e8fef5cd24f1c778",
            "upper_triangle":
                "83dfde4190136eec1d20cb5b01d8e6a8fc9e96317757341b1807b2dd99a95625",
            "doublets_csv":
                "253206c380a9728db929393d278d6c37463d16d46f7b9fd54be917573d1fd79e",
            "triplets_csv":
                "a421494f76b61fdcf0a721a1225f12447f60587815bfb6b86d331e88cdca4a91",
        },
        {
            "linear":
                "5f5d07e014ceb838743a6fc47380bcf08ea2e14421541e2c741d5e7d4724f3c0",
            "upper_triangle":
                "863466ca3a0b159d2089e5bdb16cbcf937196b0c8ffa594ef22bb529d8cf27b1",
            "doublets_csv":
                "10adc22af9f7c4e87b9a236839ed85bcbb539d2ca077e3103c4acf63bb9d3db9",
            "triplets_csv":
                "432ee235a033ca375fbd29e96996db802f0442eb364956a347d5bef0831e71ba",
        },
        {
            "linear":
                "08c027c474a2fba60e0ce3c70be5dbcaebf9dfc4f5a227b8d87548722b64473b",
            "upper_triangle":
                "67f286582a1186bcf4b55a614448933ec1a1092fb6ec30a4ec51b3210d4ecea9",
            "doublets_csv":
                "6243bcb58af915b1c336c9f7d0e9945a17dabaed00cafe6ee135d38c1bbc2072",
            "triplets_csv":
                "c41a867cc47c592da644ff404b54f608668e2d21dc1fe01c796cb872ba74a95b",
        },
    ],
}


CALIBRATION_GOLDEN = {
    10: {"dx_mean": "0x1.5bec022309f0dp-3", "dx_sigma": "0x1.83215af86358dp-6",
         "s_max": "0x1.8ea544060c5e3p-12"},
    100: {"dx_mean": "0x1.5c30bab3f14f3p-3", "dx_sigma": "0x1.80d3f29a8504dp-6",
          "s_max": "0x1.4d095d9158befp-11"},
    200: {"dx_mean": "0x1.5c0f9ac07f696p-3", "dx_sigma": "0x1.805c733195f06p-6",
          "s_max": "0x1.4e32077be0e1fp-11"},
}

TRACKS_GOLDEN = {
    10: [
        "5a28758cc3e2ac82bd68c7573b4addc4da3fa2e14c6ee52ab71ec4bcb19116bf",
        "9e57f7985437c2317dc597c5b644df8335bf4454c30d89d631856ada57fc2bdf",
        "33a3b94b3776e7d518731b6fbe897e29e858f601a830ffa671db91cd1dc91c5b",
    ],
    100: [
        "551be125cb9c57cc9ff5003d82404bdfaf7d6c58f3283381b6a9bce23ed37a80",
        "2ac83753c6f58ff8777209753d8ed14918bd56b02a8935a4049098b5baf14f24",
        "6a31ca1d34408b4df5e1f5e8c584be8342fa33d0adab2f0122d314f253c27d06",
    ],
    200: [
        "f96d5066bbda52b86146ea05d7ff6542ece05f7b672da61c0b38d9f5912b6dbb",
        "1520e066a94d4e56c1a3cc1bd22309a3785d4ea87b21c5541751aa95296c980b",
        "4a174adb3dd585f76dfb047d4a90d25b157512c28e2665f6ecca94d3868a0ba6",
    ],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@cache
def calibrated(multiplicity: int):
    d = RunConfig().with_seed(2024).to_dict()
    d["sim"]["mean_multiplicity"] = float(multiplicity)
    config = RunConfig.from_dict(d)
    events = simulate_events(config, 3)
    return config, events, calibrate(events, config)


def track_hashes(multiplicity: int) -> list[str]:
    config, events, (window, scaling, _) = calibrated(multiplicity)
    assert config.solver == "exact"
    geometry = build_geometry(config.geometry)
    out = []
    for event in events:
        result = reconstruct_event(event, geometry, window, scaling, config)
        rows = [f"{t.event_id},{t.track_id},{';'.join(map(str, t.hit_ids))},"
                f"{float(t.chi2).hex()},{t.ndf},{float(t.energy).hex()},"
                f"{'' if t.matched_particle_id is None else t.matched_particle_id}"
                for t in result.tracks]
        out.append(sha("\n".join(rows).encode()))
    return out


def event_hashes(multiplicity: int, tmp_path) -> list[dict[str, str]]:
    config, events, (window, scaling, _) = calibrated(multiplicity)
    geometry = build_geometry(config.geometry)
    out = []
    for event in events:
        doublets = build_doublets(event.hits, geometry, window)
        triplets = build_triplets(doublets, window)
        q = assemble_qubo(triplets, scaling)
        i, j, b = q.upper_triangle()
        dpath = tmp_path / f"doublets_{multiplicity}_{event.event_id}.csv"
        tpath = tmp_path / f"triplets_{multiplicity}_{event.event_id}.csv"
        write_doublet_debug_csv(dpath, event.event_id, doublets)
        write_triplet_debug_csv(tpath, event.event_id, triplets)
        out.append({
            "linear": sha(q.linear.astype("<f8").tobytes()),
            "upper_triangle": sha(i.astype("<i8").tobytes() + j.astype("<i8").tobytes()
                                  + b.astype("<f8").tobytes()),
            "doublets_csv": sha(dpath.read_bytes()),
            "triplets_csv": sha(tpath.read_bytes()),
        })
    return out


@pytest.mark.parametrize("multiplicity", sorted(GOLDEN))
def test_objective_and_debug_dumps_match_golden_hashes(multiplicity, tmp_path):
    assert event_hashes(multiplicity, tmp_path) == GOLDEN[multiplicity]


@pytest.mark.parametrize("multiplicity", sorted(CALIBRATION_GOLDEN))
def test_calibration_matches_golden_values(multiplicity):
    _, _, (_, _, info) = calibrated(multiplicity)
    assert info["dx_source"] == info["s_max_source"] == "truth-calibrated"
    assert ({k: info[k].hex() for k in CALIBRATION_GOLDEN[multiplicity]}
            == CALIBRATION_GOLDEN[multiplicity])


@pytest.mark.parametrize("multiplicity", sorted(TRACKS_GOLDEN))
def test_tracks_match_golden_hashes(multiplicity):
    assert track_hashes(multiplicity) == TRACKS_GOLDEN[multiplicity]
