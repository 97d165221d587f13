"""Host-clock optimisations must not move the simulated timeline.

Runs a short nominal point of each repo-benchmark workload and pins its
``sim_digest`` - a hash of every request's due/sent/done time and error
plus all counter deltas and busy times.  A change meant to make the
simulator faster on the host keeps every digest; a change to the model
itself moves one, and must update the pin deliberately.
"""

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench.metrics import sim_digest  # noqa: E402
from perfbench.workloads import run_point  # noqa: E402

SEED = 1
REQUESTS = 400

#: sim_digest of the first REQUESTS arrivals of each nominal point
PINNED = {
    "resp-dpdk-sharded":
        "036ab40923b8e2fd3e9c61164e8cb0d0437e80b0ad3113d6f91ac08576a3450b",
    "memcached-posix-4k":
        "7816270a6bdc21bda2e0decc58435a1a5b9d94a77c92e2b349d19604c004217d",
    "storelog-spdk":
        "a4226c252b6eef1d2d23eeb2fdab3e13dbd6eb481b708cc22197765cff829a2e",
}


def _configs():
    with open(os.path.join(_ROOT, "perfbench", "workloads.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_nominal_point_digest_is_pinned(workload):
    cfg = _configs()[workload]
    point = run_point(workload, cfg, SEED, "nominal-0", cfg["nominal_rate"],
                      REQUESTS)
    assert point.failed == 0
    assert point.completed == REQUESTS
    assert sim_digest([point]) == PINNED[workload]
