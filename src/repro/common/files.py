"""The one writer of every file the package writes.

:func:`write_replacing` writes a file's text to a temporary file beside it
and moves that into place once it is whole.  It never renames onto an
existing name: it unlinks the target first.  On ext4 mounted
``auto_da_alloc`` (the default), a rename over an existing file, like an
``O_TRUNC`` rewrite of one, forces write-back of the new file's delayed
blocks — tens of milliseconds per file, paid on every re-export of the
same path, for a durability nothing here asks for.  A rename into a free
name costs a fraction of a millisecond.

The contract:

* an exception raised while the text is written leaves the target with its
  old bytes, and removes the temporary file; once the temporary file is
  whole the target takes the new bytes — never a mix of old and new;
* between the unlink and the rename (two system calls) the target is
  briefly absent;
* nothing is fsynced: a crash of the machine may lose the new bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

__all__ = ["write_replacing"]


def write_replacing(path: Union[str, Path], pieces: Iterable[str]) -> Path:
    """Write the concatenated ``pieces`` to ``path`` (making its parent
    directory), through ``.<name>.<pid>.tmp`` beside it; returns ``path``
    as a :class:`~pathlib.Path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w") as out:
            for piece in pieces:
                out.write(piece)
        path.unlink(missing_ok=True)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path
