"""Set-up probe: a fresh process that imports hivae and gets models ready.

    python3 perfbench/setup_probe.py SPEED_JSON TYPES_CSV MODEL_JSON

Imports hivae, builds a model for the column types and loads the saved
model, under the speed sampler, and writes the sampler's totals to
SPEED_JSON.  The parent times the whole process, from start to exit.
"""

import json
import sys

import paths  # noqa: F401
import speed

if __name__ == "__main__":
    speed_out, types_path, model_path = sys.argv[1:4]
    with speed.Sampler() as sampler:
        import numpy as np

        import hivae  # noqa: F401
        from hivae import tabular, training

        training.build_model(
            tabular.load_types(types_path), training.TrainConfig(), np.random.default_rng(0)
        )
        training.load_model(model_path)
        totals = sampler.totals()
    with open(speed_out, "w") as fh:
        json.dump(totals.to_dict(), fh)
