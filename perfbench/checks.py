"""Output check: the sha256 of every result's canonical payload.

Each experiment's ``ExperimentResult.to_payload()`` is serialised with
the engine's canonical JSON (sorted keys, fixed separators) and
hashed.  A run passes when it exited 0 and its digests equal the
reference digests exactly: the committed ``perfbench/digests.json``
at the default seed, or, at any other seed, those of a cold serial
``figures_cold`` run -- so warm and remote results must be
bit-identical to cold serial ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Tally", "mismatches", "payload_digest", "result_digests"]


def payload_digest(result) -> str:
    """sha256 of one ``ExperimentResult``'s canonical payload JSON."""
    from repro.serialization import canonical_json

    text = canonical_json(result.to_payload())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digests(results: Iterable[Tuple[str, object]]) -> Dict[str, str]:
    """Experiment id -> digest; a dict result adds one per panel.

    Panels of drivers returning several results (``fig_6_17``) are
    keyed ``<experiment id>/<panel>``.
    """
    digests = {}
    for exp_id, result in results:
        if isinstance(result, dict):
            for panel, item in result.items():
                digests[f"{exp_id}/{panel}"] = payload_digest(item)
        else:
            digests[exp_id] = payload_digest(result)
    return digests


def mismatches(
    got: Mapping[str, str], expected: Mapping[str, str]
) -> List[str]:
    """Ids whose digests differ, or that only one side has."""
    return sorted(
        key
        for key in set(got) | set(expected)
        if got.get(key) != expected.get(key)
    )


class Tally:
    """Attempted and failed runs of one benchmark invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(
        self,
        returncode: int,
        got: Optional[Mapping[str, str]],
        expected: Optional[Mapping[str, str]],
    ) -> bool:
        """Count one run; return whether it failed.

        A run fails when it exited non-zero, wrote no digests, has no
        reference to be checked against, or differs from it.
        """
        self.attempted += 1
        failed = (
            returncode != 0
            or got is None
            or expected is None
            or bool(mismatches(got, expected))
        )
        self.failed += failed
        return failed

    @property
    def failed_frac(self) -> float:
        """Share of attempted runs that failed (0 when none ran)."""
        return self.failed / self.attempted if self.attempted else 0.0
