"""Golden byte-identity for the batching paths.

The adaptive controller must be pure opt-in.  Three guarantees:

* spelling out the defaults (``batch_policy="static"``,
  ``batch_max_msgs=0``, same for the decision pipeline) produces a
  bit-for-bit identical execution to leaving them unset, at any batch
  window;
* the static batched execution itself is pinned, so a later change to
  the adaptive machinery cannot silently perturb the static path;
* the adaptive size-or-deadline path is pinned too, on its own and
  with a site crash inside a batch window (the outbox purge), so a
  refactor of the flush machinery cannot move a scheduled deadline.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids

N_SITES, N_KEYS, N_TXNS = 2, 8, 12

#: Pinned when the adaptive policy landed: the static batched path.
GOLDEN_STATIC = {
    # Window 0 (batching off) is pinned by the dataplane golden suite.
    1.0: "f0fd467014bebde4ad8c4d6eef04718c7ba27f4d3e23269ddea50df89c2ae5ce",
    2.0: "bcac4f72f875e8a2cabf86f6fde546bc7d0ab35b74b201c1047ce98accfcaafb",
}

#: Pinned before the network outboxes and the decision pipeline shared
#: one flush implementation: adaptive policy, size trigger 4 on both
#: layers, window 2.0; ``"site crash"`` crashes s1 at 10.5 (two
#: messages sit in its outboxes) and restarts it at 40.5.
GOLDEN_ADAPTIVE = {
    "no crash": "026c3e09e2810ddb8c984b057b9774f791eedc54e8773783ee62bfe9ca9429a6",
    "site crash": "eac9b56aa768b0b059c43993e5a1be2f92c3f6986f694be033c4bff1e7e9c923",
}
ADAPTIVE_CRASHES = {"no crash": None, "site crash": ("s1", 10.5, 40.5)}


def fingerprint(
    window: float,
    gtm_extra: dict | None = None,
    crash: tuple[str, float, float] | None = None,
    **extra,
) -> str:
    reset_message_ids()
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=True,
        )
        for i in range(N_SITES)
    ]
    fed = Federation(
        specs,
        FederationConfig(
            seed=11,
            batch_window=window,
            gtm=GTMConfig(
                protocol="2pc", granularity="per_site", pipeline_window=window,
                **(gtm_extra or {}),
            ),
            **extra,
        ),
    )
    if crash is not None:
        site, crash_at, restart_at = crash
        fed.crash_site(site, at=crash_at)
        fed.restart_site(site, at=restart_at)
    batches = [
        {
            "operations": [
                increment("t0", f"k{i % N_KEYS}", -1),
                increment("t1", f"k{i % N_KEYS}", 1),
            ],
            "name": f"G{i}",
            "delay": (i % 4) * 0.5,
        }
        for i in range(N_TXNS)
    ]
    outcomes = fed.run_transactions(batches)
    blob = json.dumps(
        {
            "outcomes": [outcome.committed for outcome in outcomes],
            "trace": [str(record) for record in fed.kernel.trace.records],
            "events": fed.kernel.events_dispatched,
            "end": fed.kernel.now,
            "sent": fed.network.sent,
            "envelopes": fed.network.envelopes,
            "rng_probe": fed.kernel.rng.stream("golden-probe").random(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("window", [0.0, 1.0, 2.0])
def test_explicit_static_knobs_change_nothing(window):
    implicit = fingerprint(window)
    explicit = fingerprint(window, batch_policy="static", batch_max_msgs=0)
    assert implicit == explicit, (
        f"window={window}: spelling out the static batching defaults "
        "perturbed the execution"
    )


@pytest.mark.parametrize("window", [1.0, 2.0])
def test_static_batched_path_is_pinned(window):
    assert fingerprint(window) == GOLDEN_STATIC[window], (
        f"window={window}: the static batched execution drifted from "
        "the fingerprint pinned when the adaptive policy landed"
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_ADAPTIVE))
def test_adaptive_batched_path_is_pinned(case):
    digest = fingerprint(
        2.0,
        gtm_extra={"pipeline_policy": "adaptive", "pipeline_max_group": 4},
        crash=ADAPTIVE_CRASHES[case],
        batch_policy="adaptive",
        batch_max_msgs=4,
    )
    assert digest == GOLDEN_ADAPTIVE[case], (
        f"{case}: the adaptive batched execution drifted from its "
        "pinned fingerprint"
    )
