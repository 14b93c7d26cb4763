"""Print the SHA-256 digest of every artifact the end-to-end CLI sequence writes.

    PYTHONPATH=src python tests/golden_digests.py OUT_DIR > digests.json

Runs ``test_cli.run_pipeline`` (gen -> tile -> train -> eval -> predict ->
grid-search -> cv -> grad-check, all on fixed seeds) in OUT_DIR, which must
be absent or empty, and prints {relative path: sha256} as sorted JSON. Point
PYTHONPATH at the ``src/`` of each tree to compare; the trees write
byte-identical artifacts exactly when ``diff`` of the two outputs is empty.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

from test_cli import run_pipeline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to run the sequence in (absent or empty)")
    out_dir = parser.parse_args(argv).out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    with contextlib.redirect_stdout(sys.stderr):  # the subcommands' own messages
        files = run_pipeline(out_dir)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
