"""Golden outputs: the CSVs of a fixed (config, seed) must not change by a byte.

The digests below pin both policies at seed 1 over a 1200 s horizon of the
bundled profile. A change that is meant to alter outputs must say why and
update them; a speed-up or refactor must leave them alone.
"""

import hashlib
from dataclasses import replace

import pytest

from elastidebt.experiment import default_config, emit_csv, run_experiment

GOLDEN = {
    "debt-aware": {
        "debt.csv": "84b53132223bb225b14dece8b46fd095be5e017509b0ef1a552ef7703489caf3",
        "penalties.csv": "993e3b9b935aabf630a2eb95dd493b22eb58680ad49a456539d1739523daec36",
        "provisioning.csv": "93420647433e7a39205c7fea353e4851dbdabb9da149cb8694a8dc7690e4f963",
        "qtable.csv": "325015d89d7b6ba06228d73cd941be569d8faf611858f7cd46351ef3a041dce5",
        "summary.csv": "50a5588593a6948828c869be01402ec68d040d29866909eac5bc2eb4e3ae5d9b",
        "utility.csv": "feeb84a3313c9f5bfbc80e8459bb076ad9a05cfd851713dee83bd09b57d16f48",
    },
    "voting": {
        "debt.csv": "658cfced168e2679d64a881b216120d90ee2094c5d920ccebbfe0c985891b5ea",
        "penalties.csv": "fae75b84a28c90dfa5db0889aa0ee1eeac41b96346e177b7a1ca764b1c79ca87",
        "provisioning.csv": "9c46b3e081869731b8b8db72b01c2d24a581ae5797b09e20c9d017f6364840aa",
        "summary.csv": "9d8607e8f295758cca004487e99b2f75d0e1443ef47204fda787f0d4de8c4adc",
        "utility.csv": "c4b7e5b55b51f154ea557bb165e2385785c3e151c306bc11f0c4cfc609f410b2",
    },
}


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_csv_digests_are_golden(policy, tmp_path):
    config = replace(default_config(seed=1, horizon=1200.0), policy=policy)
    emit_csv(run_experiment(config), str(tmp_path))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN[policy]
