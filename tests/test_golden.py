"""Golden artifacts: `pipeline` on the committed sample writes known bytes.

Every artifact must stay byte-identical across refactors. The manifest is
compared without its ``created_at`` timestamp, re-serialized with sorted
keys. A change that is meant to alter an artifact must update its digest
here and name the changed result in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from rulekit.cli import main

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "sample" / "config.json"

GOLDEN_SHA256 = {
    "case_fatal_meta.json": "d30fcc89185c8dca79379aa04c57f57e45a98cf72579e37f636e8a42704ba885",
    "case_fatal_rules.csv": "6acd37fea7d146fee4fe1672b069d7c76fdfa812e5917f1dd403036c7f402b52",
    "case_fatal_rules.txt": "c992861f3e075e4d344519b23b0a584e3899a62faf474be6dfada6b0247501e8",
    "case_fatal_rules_full.csv": "e1afb12e52a20f571ceb85ec08a975148ac1b5e0b993b5db08a9a9c166919a70",
    "case_fatal_scatter.csv": "dd44233f22f541ee8305f97d5ae9e7c7aa356e655b51959d2f324eb9362cce79",
    "case_fatal_scatter.svg": "54ffc2892b7b201c8e77602c643ccb4cc3498d24cc21506bceffb6f6f4b6bc75",
    "case_single_vehicle_meta.json": "0ca4325a8c1fe9ad436b676596d0cf3eb2114871e4891e1d2fa9be51f8f55470",
    "case_single_vehicle_rules.csv": "8108af2d798cdade0e10f04402a3a60d7b683ddbc4d47abdc25c90707f9cb069",
    "case_single_vehicle_rules.txt": "e7622fa76cbcc21d31ccf062f81704362dd7a19a1c81896f12271bbfa614df7a",
    "case_single_vehicle_rules_full.csv": "e1ccb124afc2c3acbe73b2ce4fbce5e7d0e96d120be34249869ac5e3fefdf6d4",
    "case_single_vehicle_scatter.csv": "8f1c3fe5f8df37f742602ed14ed3a2d88878244a2ec4861d1526cfbcd1c6df5a",
    "case_single_vehicle_scatter.svg": "8e8f854fd5ec98e1208438747d00f11d9e2856998e6ca6855c45391c1d5a081a",
    "crosstab_alignment.csv": "ab703eb836e0b03a3b07e3fe82579335da090217bf714dd048a658834c275578",
    "crosstab_crash_type.csv": "3ca5040652d149a850b7aaa96f12b16e652924cc89852efdc4f2767c5f287ec8",
    "crosstab_driver_age.csv": "e6839bcc93e0c1bc50547ffa6f475997c4d2b69c284cea917ed3cda1462a4f01",
    "crosstab_driver_condition.csv": "896ab8cbd3de30a36bd4cdea931fe1c35d8a9f6602670ec66737dd8f2c5c485b",
    "crosstab_posted_speed.csv": "e16416e37a400329a099895a6b630c423d1690e4c5f1aaa92c773726941a2a53",
    "crosstab_road_surface.csv": "5ec8de73c51eadfd32425c8f6f53b5f3e3146861766d406e771c40801d4b5515",
    "crosstab_severity.csv": "50d5a94838a556daec2882990f979fe38a615815079618fe506dad44956a9bba",
    "crosstab_shoulder_width.csv": "83b15ccf6e54ab6e557570a8ef9b3bdd6d45690060ae027a4ab62e6c242f0780",
    "crosstab_weather.csv": "2602d84f1bc04f96ca7891dc0d76ab985f1d6d4a8ee85645bdadbd1b5ffd6df4",
    "importance.csv": "ead1068d79c85d7dec56215aa7d6142c9eccb4e6db10aa515f20cce3b4288cd7",
    "importance.json": "6c1ab22b5b4271229954606537781002284a19b8d8645594d7bf07a1234cfd6f",
    "importance.svg": "ef4f6fd8972bdcc203295b658f0d6162cea26a8c3514bb207b5fe0ab3af25c9e",
    "item_frequency.csv": "45c9fa461df253c2de982f719053d7cae6ad235dba91ad4bd583268111c5ee5d",
    "item_frequency.svg": "72c0280bb4692693e6364d24c64412a9cd8065bffdf6e0f6f2dcdc1a8ff91110",
    "manifest.json": "9cba988fb2a58489827ef2e69b91b9be0c0c71a179301f79a98e375c673bef27",
    "selected_variables.json": "0b874b781442d0b290cef5ea88fa17025eeb6a7eff25d573d288a0dfa9be091c",
    "summary.json": "76f0af4c04b3f0dc70a61115f1e82cc80cdb8faf16d34d7ca740b56f7cd09b02",
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("created_at")
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_sample_pipeline_artifacts_match_golden_digests(tmp_path):
    assert main(["pipeline", "--config", str(SAMPLE_CONFIG), "--out", str(tmp_path)]) == 0
    got = {p.name: _digest(p) for p in sorted(tmp_path.iterdir())}
    assert sorted(got) == sorted(GOLDEN_SHA256)
    changed = sorted(name for name, digest in got.items() if digest != GOLDEN_SHA256[name])
    assert changed == []
