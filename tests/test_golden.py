"""The v1 outputs of the two golden configs stay byte for byte what
``tests/golden/`` holds.  The eight outputs other than ``verify.json``
are regenerated here (about 0.15 s); the two ``verify.json`` files (about
3 s) are compared, with the other eight, by ``python
tests/golden/record.py --check``.  A change that moves bits records them again with
``python tests/golden/record.py``."""

import importlib.util
import os

_RECORD = os.path.join(os.path.dirname(__file__), "golden", "record.py")
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_the_outputs_other_than_verify_are_the_golden_bytes():
    commands = [c for c in record.COMMANDS if c != "verify"]
    assert record.differences(commands) == []
