"""Golden digests of the lint output: codes, messages, lines and order.

``test_fixtures.py`` checks only *which* codes each mutant fires.  These
pins hash the whole ``LintReport.to_dict()`` payload -- every message,
line, finding order, duplicate and deep-lint verdict row -- so a
refactor of the rules must reproduce the report byte for byte.  File
paths are made relative to the repository root first, so the digests do
not depend on the working directory.

To re-derive a digest after an intended output change, print
``_digest(...)`` for the affected case and say why in the change log.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os

import pytest

from repro.cli import main
from repro.lint import lint_targets, target_from, zoo_targets

from .fixtures import MUTANTS

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

ZOO_DIGEST = (
    "482cd44a349a12cc31b383575b9b523fc8f5758246afcf34e118dffa7fc0382c"
)
ZOO_DEEP_DIGEST = (
    "b79e63a524b48addccbf70abd283d176dfeaf7bcb9568a1ee6af8878ab668d9b"
)
LIST_CODES_DIGEST = (
    "e587c0cbaedb5cddaa2fe394990a28ed62ce479bab164deb42ba2853cf0c9581"
)

#: Fixture module -> digest of its deep lint report.
FIXTURE_DIGESTS = {
    "rep101_overlapping_signature": (
        "9d91e52e871d66c65e54ed088aaeec42df36ea0445a482d7d81b94f84b7bfc92"
    ),
    "rep102_incompatible_composition": (
        "c07c0d82de86309c546823b2abc5bc812e9b511154dc64dc333fedbf6e219ad7"
    ),
    "rep103_not_input_enabled": (
        "15dc1e41310a9ab628e0a2388d06029ec1b5eda64997e7eb73ea60e7e2e7cc53"
    ),
    "rep104_partial_tasks": (
        "514ff1565829c9160528543d6979da2c09e64aec7c7615ddbfb7ec046bead312"
    ),
    "rep105_dead_family": (
        "34b3c5d7d3ccabe2c1b9515558709554b40e984e5eecb3e257d43fbc962781b6"
    ),
    "rep106_nondeterministic": (
        "b821533c463579f15fcfedf4bb2e5c86251d05a5e65258b1f14723508acd510b"
    ),
    "rep201_message_introspection": (
        "693ba269b8a86f8c82847e5cc76baa76f84fac3cb82404e6c739b482019b913a"
    ),
    "rep202_stable_storage": (
        "c91c4cde9f220b29687f01f9e6bb451cf21546997974e13b601d7f22cee2cbe1"
    ),
    "rep203_unbounded_header": (
        "ebcb133418e801051b5287ba95def1155163823c10397265d6297dd79494e29e"
    ),
    "rep301_payload_flow": (
        "a20a0930e39cf827b8899be8546cbf8e7ec87a1e7888152b27bd78835650bdcd"
    ),
    "rep302_unproven_interval": (
        "d15705710cb0883e8314e78ed8d5409487818a18fa5704bb67d3991189710b63"
    ),
    "rep303_guarded_survivor": (
        "9f14ce2af5bca10845cf8568360b99fbb2e57d70b0635cac6ad339bc4f4c0b72"
    ),
    "rep304_false_claim": (
        "0a15b7139a60c07c55484ed83dde1d444520b07f7a77b9764a24d3c56ca4526d"
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(report) -> str:
    """sha256 of the report payload with repo-relative file paths."""
    payload = report.to_dict()
    for finding in payload["findings"]:
        finding["file"] = os.path.relpath(
            os.path.abspath(finding["file"]), REPO
        )
    return _sha256(json.dumps(payload, ensure_ascii=False))


def test_fixture_table_covers_every_mutant():
    assert set(FIXTURE_DIGESTS) == set(MUTANTS)


def test_zoo_report_is_pinned():
    report = lint_targets(zoo_targets())
    assert _digest(report) == ZOO_DIGEST, report.render_text()


def test_deep_zoo_report_is_pinned():
    report = lint_targets(zoo_targets(), deep=True)
    assert report.verdicts
    assert _digest(report) == ZOO_DEEP_DIGEST, report.render_text()


@pytest.mark.parametrize("module_name", sorted(FIXTURE_DIGESTS))
def test_deep_fixture_report_is_pinned(module_name):
    module = importlib.import_module(f"tests.lint.fixtures.{module_name}")
    environment = getattr(module, "ENVIRONMENT", None)
    targets = [
        target_from(obj, environment=environment)
        for obj in module.LINT_TARGETS
    ]
    report = lint_targets(targets, deep=True)
    assert _digest(report) == FIXTURE_DIGESTS[module_name], (
        report.render_text()
    )


def test_list_codes_text_is_pinned(capsys):
    assert main(["lint", "--list-codes"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == LIST_CODES_DIGEST, out
