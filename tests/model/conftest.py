"""Hypothesis profiles for the model-checking suites.

Three profiles, selected with ``--hypothesis-profile=<name>`` (or the
``HYPOTHESIS_PROFILE`` environment variable):

* ``dev`` (default): modest example counts so the suite rides along with
  the plain tier-1 run (``PYTHONPATH=src python -m pytest -x -q``);
* ``ci``: the bounded CI budget — fixed derandomized seed, deadline
  disabled (CI machines stall unpredictably; a deadline would flake),
  sized to keep the whole ``modelcheck`` job under five minutes;
* ``exhaustive``: the deep sweep for local bug hunts, paired with the
  ``slow``-marked enumerator tests (``-m slow`` runs both).

The brute-force enumerators (truncation, shard sweeps, interleavings) are
profile-independent — they enumerate, they don't sample.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

settings.register_profile("dev", max_examples=25, stateful_step_count=30, **_COMMON)
settings.register_profile(
    "ci",
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    print_blob=True,
    **_COMMON,
)
settings.register_profile(
    "exhaustive", max_examples=500, stateful_step_count=80, **_COMMON
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
