"""Byte identity of the CLI's results, pinned as one digest.

``scripts/cli_identity.py`` runs a fixed set of seed-0 commands and
hashes their exit codes, output and files. A change that alters any
result on purpose updates the pin below in the same commit.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_identity.py"
PINNED = "172 commands sha256 06539942a4dc8a2ef5d28f5d4e26abac1ddcedb2ab5a35d9e738827151e52128"


def test_cli_identity_digest_is_pinned(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's src/ entry
    spec = importlib.util.spec_from_file_location("cli_identity", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    assert script.main() == 0
    assert capsys.readouterr().out.strip() == PINNED
