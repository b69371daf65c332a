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
                "fc383bc18d504743eeee5cb09eeb8c1c0084b6b3e251517759ab36b2043a8300",
            "upper_triangle":
                "8b97195d18fb60cef4c07cee6ed17e5e62bcea8619d2ba270257915377f0f219",
            "doublets_csv":
                "ac19da471ce140526afb2517670cf3f65f883f95457825e6964384213a9660b6",
            "triplets_csv":
                "92f6990f318e421df93d6fd64743353561c8c26c7be02506d2c30f0fcebc009a",
        },
        {
            "linear":
                "8eb2cad18cd9a4c2bfe393082b185dc546edab608d16d4418d21b8cf97fd75ea",
            "upper_triangle":
                "d7b7a61eb61148a44b43b3ccbe495fa581ae577bbb791a32bce8b8887c1dc143",
            "doublets_csv":
                "f205ed46e09224c3caafe6d862691a0f318b425b8f802a7d94a2864efa11b954",
            "triplets_csv":
                "573cf315e2c75a672daa1f2b5a7b3cafae8d7926615cfdc3da9145c5777aaf50",
        },
        {
            "linear":
                "8605a6640166e38dd64a350aaed13112bb8c04d1f9e68475d8f5636845b9123f",
            "upper_triangle":
                "7301b05cacc2088cb390f0e206b091aa8e52a2c22be08740369db39e3002b386",
            "doublets_csv":
                "580417e37d6d4aae1885d040aa3a58547005864520d9a22492a2aa308fe6565d",
            "triplets_csv":
                "b448fa64d15a4aeb8c6d8b17e4fc0266ed2e57bdd0b70c8598839a54277834e5",
        },
    ],
    100: [
        {
            "linear":
                "8bae3ac00a072f9dedd3c2f760c1a62c683129aa8cbedaa51493f78f314aaad0",
            "upper_triangle":
                "435bd9422f969129c71405d8847495c4c09434157cfc8ff8bf45d2d902c1d7f2",
            "doublets_csv":
                "9fe03b8936f52bdc49d430612e8730c6729e805274ec1ad96dd6d642e98927e5",
            "triplets_csv":
                "c278e799b73cbab3552232af86b6867147402dcef71bbf8fc7e7e9214d494db8",
        },
        {
            "linear":
                "95da4330ba56a8b28b7bd2cc3506278fe728bd4078d2a530cd3b989f7093673f",
            "upper_triangle":
                "29267497fd3912f47544b1ab14eeae997c36ea1a274c6cea7ce5c6a75caa4787",
            "doublets_csv":
                "8bb5be276a820da0e44be7348282b990d80a8085cca23c12a1b8b7e22445c238",
            "triplets_csv":
                "b42ad320a464da02cd4a27b487f8ae5bf05eb6d37d148ee49b0555da62a13d3b",
        },
        {
            "linear":
                "47f7209e3af342f4fac5c3af9936ac6985ba9b29e9bcba4f8c15556fbf170958",
            "upper_triangle":
                "8dcb7f1875ef0bbc0cc364575dd15e8b3a1adbcd8441be364d209e74254330f8",
            "doublets_csv":
                "171456f4a929fa5ded6b92597dd7a211f5887071420c954df2ca29778b589820",
            "triplets_csv":
                "2b9035f9256da9a53b511f67852adf5129be9b311db7badf75e0d6216cf3e0c8",
        },
    ],
    200: [
        {
            "linear":
                "476ba8df2c6177cf3e4cd1cc2dbe3d8534876867441abfca91e1e7a58970c346",
            "upper_triangle":
                "230cd8442040174947814f2f4d10655f0282754f958bca62017010dee6c28ecd",
            "doublets_csv":
                "9f52054790ce17ca906b97070318df4a6d17219c1785c199db853c71aeee484a",
            "triplets_csv":
                "13a1ceacc0f955d96fa2faf18f57fec32ec9d98b482a0ee0fc057cf19c13a5df",
        },
        {
            "linear":
                "bd50365d6e1a8e2bad816b336b6cf0202b3a83bf8e510217ab2d7d3b7ef518da",
            "upper_triangle":
                "7b988efbaa06b459f6ebf92729cf26e51b643eadb6f667ef7124db62a138b783",
            "doublets_csv":
                "afe303ec622350d03ddaaf79d45813990875b1c22f31e682fe0cb47a3b5b63a4",
            "triplets_csv":
                "3a09f426e20ea417b8802e3d8676a4c6f28f3c18fe1f45166f5743b79e004a7c",
        },
        {
            "linear":
                "4cf40c46575faa80df15b78756c5bc2776c1d54a46c669026f8ff28525e890b1",
            "upper_triangle":
                "be60553a00b292d27bc988308415e65b3ed648489d83f45b3641b43ecd8cd5fa",
            "doublets_csv":
                "77dc7962645c7c340a9ea7859eba2ac2bb8c81e7045dfdb99d711e0fab42ec18",
            "triplets_csv":
                "9a1d2fe766d99f459101ab652eb879c8bdc065913cde9ae606ff8a2f261ac980",
        },
    ],
}


CALIBRATION_GOLDEN = {
    10: {"dx_mean": "0x1.5bb314a4b390dp-3", "dx_sigma": "0x1.8216c8ab7108dp-6",
         "s_max": "0x1.118de376d2045p-11"},
    100: {"dx_mean": "0x1.5c2c06c8f2408p-3", "dx_sigma": "0x1.80b2df00053c1p-6",
          "s_max": "0x1.54800f5c07036p-11"},
    200: {"dx_mean": "0x1.5c0f1819c0d14p-3", "dx_sigma": "0x1.809d46eb611bfp-6",
          "s_max": "0x1.4532dc593eaffp-11"},
}

TRACKS_GOLDEN = {
    10: [
        "20c689e3c79822665dc59bbe33472baefdf5bdd4f99f0ccd0eb63f00b356df5d",
        "fbd5a73e6054345fcb2f63f6523bc15d71117d030ac2854d25b184b86e7a8eb6",
        "3b85a13826812141aa7e4e2c3fd78c63c9f798ac33238bf40aed429f82214775",
    ],
    100: [
        "46918b93163f404b33e9b8ea9c764718c5706a46ba5d3e082d28463d93502614",
        "a35d266f1f61af18df18bf6c026596a097652ae910f22df02173d2b0df523b20",
        "4d4a0c716ef5aca4beda3efec4773988641afa2859984e2c9a8b942824278a2e",
    ],
    200: [
        "844ec4a160c203eae8bf4b82dce9119c8fb151d819cb316bd0525c280d2d4eeb",
        "e750ea2116153758216fecdfa7f3f3f80c725e104d1267a0f991593a2e2cdf6a",
        "148bbb0bdeb18e872eb9220c07caf18c0eba450fbaf9a07ce27fabd6c617f3f0",
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
