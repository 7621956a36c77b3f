"""Golden digests of the byte-identity anchors.

Each row pins the sha256 of one anchor's standard output, so a change
that moves the output passes only if it also changes the digest here —
and says in CHANGES.md which digest changed and why.  Run in-process.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

#: (anchor, CLI arguments, sha256 of its standard output).
ANCHORS = [
    ("chaos pipeline --seed 7", ["chaos", "pipeline", "--seed", "7"],
     "829ff35f34035455002f5241ef2f94ad8ebd99ac42d8117aa7c95c7cb3196ab6"),
]


@pytest.mark.parametrize("argv, digest",
                         [(argv, digest) for _name, argv, digest in ANCHORS],
                         ids=[name for name, _argv, _digest in ANCHORS])
def test_anchor_output_matches_its_golden_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
