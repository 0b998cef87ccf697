"""Conformance fuzzing: seeded trace fuzzing with executable oracles.

The subsystem composes any registered protocol with any registered
channel family, drives long random fair executions under configurable
fault mixes, checks every execution against the paper's trace
predicates (well-formedness, PL1-PL6, DL1-DL8, validity), shrinks
violating input scripts to locally-minimal counterexamples, and emits
replayable repro files.  ``repro fuzz`` is the CLI entry point.
"""

from .arbitrary import (
    StabilizationReport,
    component_state_pools,
    corrupt_initial_state,
    stabilization_report,
)
from .corpus import CorpusEntry, append_entries, load_corpus
from .evidence import (
    EvidenceRecord,
    append_evidence,
    evidence_from_campaign,
    load_evidence,
)
from .harness import (
    FAULT_MIXES,
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    execute_script,
    script_admissible,
    with_mix,
)
from .fuzzer import (
    FuzzCampaignResult,
    RunRecord,
    ViolationReport,
    fuzz_campaign,
)
from .pool import (
    PoolInfo,
    RunOutcome,
    RunTimeout,
    auto_batch_size,
    execute_run,
    run_batch,
    run_schedule,
)
from .oracles import (
    DL_ORACLES,
    PL_ORACLES,
    STAB_ORACLES,
    Oracle,
    OracleViolation,
    check_execution,
    oracle_catalog,
    stabilization_bound,
)
from .registry import (
    FUZZ_CHANNELS,
    FUZZ_PROTOCOLS,
    resolve_fuzz_channel,
    resolve_fuzz_protocol,
)
from .replay import (
    ReplayFormatError,
    ReplayResult,
    decode_script,
    encode_script,
    load_repro,
    make_repro,
    replay,
    save_repro,
)
from .shrink import ShrinkResult, shrink_script

__all__ = [
    "CorpusEntry",
    "DL_ORACLES",
    "EvidenceRecord",
    "FAULT_MIXES",
    "FUZZ_CHANNELS",
    "FUZZ_PROTOCOLS",
    "FuzzCampaignResult",
    "FuzzConfig",
    "Oracle",
    "OracleViolation",
    "PL_ORACLES",
    "PoolInfo",
    "ReplayFormatError",
    "ReplayResult",
    "RunOutcome",
    "RunRecord",
    "RunTimeout",
    "STAB_ORACLES",
    "ShrinkResult",
    "StabilizationReport",
    "SubSeeds",
    "ViolationReport",
    "append_entries",
    "append_evidence",
    "auto_batch_size",
    "build_script",
    "build_system",
    "check_execution",
    "component_state_pools",
    "corrupt_initial_state",
    "decode_script",
    "encode_script",
    "execute_run",
    "evidence_from_campaign",
    "execute_script",
    "fuzz_campaign",
    "run_batch",
    "run_schedule",
    "load_corpus",
    "load_evidence",
    "load_repro",
    "make_repro",
    "oracle_catalog",
    "replay",
    "resolve_fuzz_channel",
    "resolve_fuzz_protocol",
    "save_repro",
    "script_admissible",
    "shrink_script",
    "stabilization_bound",
    "stabilization_report",
    "with_mix",
]
