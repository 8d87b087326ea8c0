"""Loads the frozen oracles against the live model.

`reference_datagen` imports `Device`, `Channel`, `Task` and
`implied_tx_power` from `offloadlab.model`, which builds scenarios from
record arrays only and has none of them.  The oracle is imported with
stand-ins set on the model and removed again: plain records without
validation, and the transmit power of a channel row.  Its `Scenario` is
then a builder that turns the sequences of records it samples into the
model's record arrays, field by field in dtype order, each device's row
from its Device and Channel records, and hands back the scenario as the
oracle reads it (`helpers.frozen_view`).

`reference_greedy` imports `TERMINATION_ITER_CAPPED` from
`offloadlab.greedy`, which has no iteration cap and no such end.  It is
imported while a stand-in for the constant is set on the greedy; its
tests hand it a `helpers.FrozenGreedyConfig`, whose cap never binds.

`reference_kmeans` builds its results as `KMeansModel(...,
inertia_history=...)`, a field the live model no longer has.  It is
imported while `cluster.KMeansModel` is a plain record, so its fits keep
the per-step history that the differential tests compare against.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import frozen_view
from offloadlab import cluster, greedy, model

STAND_INS = {
    "Device": SimpleNamespace,
    "Channel": SimpleNamespace,
    "Task": SimpleNamespace,
    "implied_tx_power": lambda channel, se: model.tx_power(se, channel.noise_var_w,
                                                           channel.gain),
}


def scenario_of_records(devices, tasks, channels, spectral_config):
    """`model.Scenario` of sequences of records with the dtypes' field names,
    a device's row joining its Device and Channel records, seen through
    `frozen_view`."""
    def array(records, dtype):
        return np.array([tuple(r[name] for name in dtype.names) for r in records], dtype)
    return frozen_view(model.Scenario(
        devices=array([{**vars(d), **vars(c)} for d, c in zip(devices, channels, strict=True)],
                      model.DEVICE_DTYPE),
        tasks=array([vars(t) for t in tasks], model.TASK_DTYPE),
        spectral_config=spectral_config))


with pytest.MonkeyPatch.context() as mp:
    for name, stand_in in STAND_INS.items():
        mp.setattr(model, name, stand_in, raising=False)
    import reference_datagen

reference_datagen.Scenario = scenario_of_records

with pytest.MonkeyPatch.context() as mp:
    mp.setattr(greedy, "TERMINATION_ITER_CAPPED", "iter_capped", raising=False)
    import reference_greedy  # noqa: F401

with pytest.MonkeyPatch.context() as mp:
    mp.setattr(cluster, "KMeansModel", SimpleNamespace)
    import reference_kmeans  # noqa: F401
