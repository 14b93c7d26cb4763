"""Print the SHA-256 digest of every artifact the end-to-end CLI sequence writes.

    PYTHONPATH=src python tests/golden_digests.py OUT_DIR > digests.json
    PYTHONPATH=src python tests/golden_digests.py OUT_DIR --against digests.json

Runs ``test_cli.run_pipeline`` (gen -> tile -> train -> eval -> predict ->
grid-search -> cv -> grad-check, all on fixed seeds) in OUT_DIR, which must
be absent or empty, and prints {relative path: sha256} as sorted JSON. Point
PYTHONPATH at the ``src/`` of each tree to compare. With ``--against`` it
instead compares with the digests an earlier run printed: it prints every
path whose digest differs, or that only one side has, one per line, and
exits 1 if there is any. The trees write byte-identical artifacts exactly
when it prints nothing and exits 0.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

from test_cli import run_pipeline


def differing(old: dict, new: dict) -> list[str]:
    """Sorted paths whose digest differs between two {path: sha256} maps, a path on one side only included."""
    return sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to run the sequence in (absent or empty)")
    parser.add_argument("--against", type=Path, metavar="OLD.json",
                        help="digests printed by an earlier run; print each path that differs, exit 1 if any does")
    args = parser.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    with contextlib.redirect_stdout(sys.stderr):  # the subcommands' own messages
        files = run_pipeline(out_dir)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    if old is None:
        print(json.dumps(digests, indent=1, sort_keys=True))
        return 0
    changed = differing(old, digests)
    for path in changed:
        print(path)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
