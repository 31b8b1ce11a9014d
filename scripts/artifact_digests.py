#!/usr/bin/env python3
"""Print one sha256 per artifact file under romctl output directories, with
the fields that differ between two runs of the same code masked first: the
timing columns (the optimizer's phases and `wall`) of iterations.csv and
timings.csv are emptied, and `config.out`, the output directory itself, is
dropped from run_meta.json. Two runs that agree bitwise outside their
timings print the same lines.

    python scripts/artifact_digests.py OUT_DIR [OUT_DIR ...]

Each line is `<sha256>  <name of OUT_DIR>/<path inside it>`, files in sorted
order, so the listings of two directories of the same name can be diffed."""
import hashlib
import json
import sys
from pathlib import Path

from romctl.optimizer import PHASES

TIMED_CSVS = ("iterations.csv", "timings.csv")
TIMED_COLUMNS = (*PHASES, "wall")


def mask_timings(data: bytes) -> bytes:
    """The CSV with every field of a timing column emptied."""
    lines = data.split(b"\r\n")
    header = lines[0].decode().split(",")
    timed = [k for k, name in enumerate(header) if name in TIMED_COLUMNS]
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(b",")
        if len(fields) == len(header):
            for k in timed:
                fields[k] = b""
        out.append(b",".join(fields))
    return b"\r\n".join(out)


def masked(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name in TIMED_CSVS:
        return mask_timings(data)
    if path.name == "run_meta.json":
        meta = json.loads(data)
        meta.get("config", {}).pop("out", None)
        return json.dumps(meta, indent=2).encode()
    return data


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for top in map(Path, argv):
        if not top.is_dir():
            print(f"not a directory: {top}", file=sys.stderr)
            return 2
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest = hashlib.sha256(masked(path)).hexdigest()
            print(f"{digest}  {top.name}/{path.relative_to(top).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
