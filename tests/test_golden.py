"""Golden corpus: every stored command line must reproduce its recorded output.

``golden/manifest.json`` lists command lines with the exit code and the
SHA-256 digests of stdout and stderr they produced when the corpus was
recorded.  Each entry is replayed in-process with the golden directory as the
working directory, so every path in the corpus is relative.
"""

import hashlib
import json
from pathlib import Path

import pytest

from legipower.cli import main

GOLDEN = Path(__file__).parent / "golden"
ENTRIES = json.loads((GOLDEN / "manifest.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden(entry, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (code, _sha256(captured.out), _sha256(captured.err)) == (
        entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]
    )
