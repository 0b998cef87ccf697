"""Replayable repro files for fuzz-discovered violations.

A repro file is a small JSON document (format tag ``repro-fuzz/1``)
capturing everything needed to re-execute one violating run with no RNG
involved at all: the protocol and channel registry names, the four
sub-seeds (which pin the channel delivery sets and the interleaving),
the channel configuration, the explicit (possibly shrunk) input script,
and the oracle the run violated.  ``repro fuzz --replay FILE`` loads
one, re-runs it, and reports whether the same oracle fires again.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from ..alphabets import Message
from ..channels.actions import CRASH, FAIL, WAKE
from ..datalink.actions import SEND_MSG
from ..ioa.actions import Action
from ..sim.network import DataLinkSystem
from ..sim.runner import ScenarioResult
from .harness import FuzzConfig, SubSeeds, build_system, execute_script
from .oracles import OracleViolation, check_execution

FORMAT = "repro-fuzz/1"


class ReplayFormatError(ValueError):
    """The repro file is malformed or has an unknown format tag."""


def encode_script(
    system: DataLinkSystem, actions: Sequence[Action]
) -> List[dict]:
    """Input actions as JSON-safe records."""
    records = []
    t, r = system.t, system.r
    for action in actions:
        if action.name == SEND_MSG:
            message = action.payload
            records.append(
                {
                    "kind": "send",
                    "ident": message.ident,
                    "label": message.label,
                    "size": message.size,
                }
            )
        elif action.name in (WAKE, FAIL, CRASH):
            direction = action.key[1]
            station = "t" if direction == (t, r) else "r"
            records.append({"kind": f"{action.name}_{station}"})
        else:
            raise ReplayFormatError(
                f"cannot encode non-input action {action}"
            )
    return records


def decode_script(
    system: DataLinkSystem, records: Sequence[dict]
) -> Tuple[Action, ...]:
    """Rebuild input actions from their JSON records."""
    constructors = {
        "wake_t": system.wake_t,
        "wake_r": system.wake_r,
        "fail_t": system.fail_t,
        "fail_r": system.fail_r,
        "crash_t": system.crash_t,
        "crash_r": system.crash_r,
    }
    actions = []
    for record in records:
        kind = record.get("kind")
        if kind == "send":
            message = Message(
                int(record["ident"]),
                record.get("label", "s"),
                int(record.get("size", 0)),
            )
            actions.append(system.send(message))
        elif kind in constructors:
            actions.append(constructors[kind]())
        else:
            raise ReplayFormatError(f"unknown script record {record!r}")
    return tuple(actions)


def make_repro(
    protocol: str,
    channel: str,
    seed: int,
    run_index: int,
    subseeds: SubSeeds,
    config: FuzzConfig,
    system: DataLinkSystem,
    actions: Sequence[Action],
    violation: OracleViolation,
    shrunk: bool,
) -> dict:
    """The repro-file document for one violating run."""
    return {
        "format": FORMAT,
        "protocol": protocol,
        "channel": channel,
        "seed": seed,
        "run_index": run_index,
        "subseeds": subseeds.to_dict(),
        "config": dataclasses.asdict(config),
        "oracle": violation.oracle,
        "layer": violation.layer,
        "paper": violation.paper,
        "witness": violation.witness,
        "direction": list(violation.direction)
        if violation.direction
        else None,
        "shrunk": shrunk,
        "script": encode_script(system, actions),
    }


def save_repro(path: Union[str, Path], document: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_repro(path: Union[str, Path]) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReplayFormatError(f"cannot read repro file {path}: {exc}")
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise ReplayFormatError(
            f"{path} is not a {FORMAT} repro file"
        )
    return document


@dataclass
class ReplayResult:
    """Outcome of re-executing a repro file."""

    reproduced: bool
    oracle: str
    violations: List[OracleViolation]
    scenario: ScenarioResult
    document: dict

    @property
    def script_length(self) -> int:
        return len(self.document.get("script", ()))


def _config_from_dict(data: dict) -> FuzzConfig:
    known = {f.name for f in dataclasses.fields(FuzzConfig)}
    return FuzzConfig(**{k: v for k, v in data.items() if k in known})


def replay(source: Union[str, Path, dict]) -> ReplayResult:
    """Re-execute a repro file and re-check its oracle.

    ``reproduced`` is True when the recorded oracle fires again --
    the expected outcome, since the run is fully determinized by the
    stored sub-seeds and script.
    """
    document = source if isinstance(source, dict) else load_repro(source)
    config = _config_from_dict(document.get("config", {}))
    subseeds = SubSeeds.from_dict(document["subseeds"])
    system = build_system(
        document["protocol"], document["channel"], subseeds, config
    )
    actions = decode_script(system, document["script"])
    result = execute_script(system, actions, subseeds, config)
    violations = check_execution(system, result, config)
    oracle = document["oracle"]
    return ReplayResult(
        reproduced=any(v.oracle == oracle for v in violations),
        oracle=oracle,
        violations=violations,
        scenario=result,
        document=document,
    )
