"""The scripts' outputs, pinned by digest: the survey at p = 2 and p = 3 and
the audit's JSON report go through every equivalence decider, and each run
is deterministic, so any change to a verdict, a witness or a certificate
shows here.  The three runs take about 0.4 s together."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args,digest", [
    (["equivalence_survey.py"], "643a636b52aa5fe09288950239f4e7edffb74f5dedbab9b24e706326e9935e9b"),
    (["equivalence_survey.py", "--p", "3"],
     "6f30767b921018f185ef4f57a2ed136ea7ad482c8f34112bd2e9bf5826848725"),
    (["claim_audit.py", "--json"], "5219df060d4b3daceed6683d17c13d898a959d519871dd219ef9f65a133f3474"),
], ids=["survey-p2", "survey-p3", "audit-json"])
def test_script_output_is_pinned(args, digest):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                         env=env, capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == digest
