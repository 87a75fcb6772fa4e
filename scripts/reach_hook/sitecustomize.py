"""The call recorder of ``scripts/reach.py``: on ``PYTHONPATH`` only for the
census's child processes, never for the package or its tests.

With ``REPRO_REACH_DIR`` set, a ``sys.setprofile`` hook (threads included)
notes the code object of every Python call; at exit the calls into
``REPRO_REACH_ROOT`` are appended to ``REPRO_REACH_DIR/<pid>.txt`` as
``file<TAB>first line<TAB>name`` rows.  A child that installs its own
profiler (cProfile) stops the recording there.
"""

import atexit
import os
import sys
import threading

_DIR = os.environ.get("REPRO_REACH_DIR")

if _DIR:
    _codes = set()
    _note = _codes.add

    def _hook(frame, event, arg):
        if event == "call":
            _note(frame.f_code)

    def _dump():
        sys.setprofile(None)
        root = os.environ["REPRO_REACH_ROOT"]
        rows = set()
        for code in _codes:
            path = os.path.abspath(code.co_filename)
            if path.startswith(root):
                rows.add(f"{path}\t{code.co_firstlineno}\t{code.co_name}\n")
        with open(os.path.join(_DIR, f"{os.getpid()}.txt"), "a") as out:
            out.writelines(sorted(rows))

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
