"""The benchmark's workloads: registered scenarios at their registered size.

Why each one is here is recorded in ``README.md``. ``fingerprint`` is
the merged fingerprint of the registered spec (its own seeds); every
benchmark run executes that spec once and checks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    #: Name of the registered scenario, which is also the workload's name.
    name: str
    #: Merged fingerprint of the registered spec, recorded from the tree
    #: this benchmark was written against.
    fingerprint: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("loopback_64b", "4d1767feefdb02cf"),
        Workload("kv_zipf_1m", "48ebaeb454eb2a58"),
        Workload("faults_canned", "bc847d09470c54f3"),
        Workload("kv_rack_zipf", "08e2f7dfc56e844f"),
    )
}


def registered_spec(workload: Workload):
    """The registered :class:`~repro.shard.ScenarioSpec` of ``workload``."""
    import repro.topology  # noqa: F401  (registers the rack scenarios)
    from repro.shard import scenario

    return scenario(workload.name)


def seeded_spec(workload: Workload, seed: int):
    """The registered spec with its random streams drawn from ``seed``.

    Only the spec's ``seed`` and ``fault_seed`` change: sizes, rates and
    shard counts stay as registered. The seeds are derived here, not by
    the simulator, so a change to the simulator's seed derivation cannot
    change the benchmark's inputs. ``loopback_64b`` has no random stream,
    so its simulated output is the same for every seed.
    """
    rng = random.Random(f"simbench/{workload.name}/{seed}")
    return registered_spec(workload).replace(
        seed=rng.getrandbits(63), fault_seed=rng.getrandbits(63)
    )
