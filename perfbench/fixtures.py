"""Write the benchmark's input graphs as edge-list files.

Runs in its own interpreter, so the generator (`tests/synth.py`) is never
imported into the process that is timed.  For each requested seed it writes
`community_s<scale>_seed<seed>.txt` (one "u v" pair per line) and a
manifest beside it holding m and a triangle count made here, from the
pairs, without the library.  The timed process checks its loaded graph
against that manifest before it times anything.

    python3 perfbench/fixtures.py --scale 30 --seeds 42,7 --out perfbench/.data
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fixture_paths(out: Path, scale: int, seed: int) -> tuple[Path, Path]:
    stem = f"community_s{scale}_seed{seed}"
    return out / f"{stem}.txt", out / f"{stem}.json"


def count_triangles(pairs: list[tuple[int, int]]) -> int:
    """Each triangle u < v < w counted once, at its edge (u, v)."""
    higher: dict[int, set[int]] = {}
    for u, v in pairs:
        higher.setdefault(u, set()).add(v)
    empty: set[int] = set()
    return sum(len(higher[u] & higher.get(v, empty)) for u, v in pairs)


def write_fixture(out: Path, scale: int, seed: int) -> None:
    import synth

    pairs = synth.community_pairs(seed, scale)
    edges_path, manifest_path = fixture_paths(out, scale, seed)
    tmp = edges_path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as f:
        f.write("".join(f"{u} {v}\n" for u, v in pairs))
    os.replace(tmp, edges_path)
    manifest = {"scale": scale, "seed": seed, "m": len(pairs),
                "triangles": count_triangles(pairs)}
    tmp = manifest_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(manifest) + "\n")
    os.replace(tmp, manifest_path)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated generator seeds")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "tests" / "synth.py").is_file():
        print(f"fixtures: {ROOT / 'tests' / 'synth.py'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in (int(s) for s in args.seeds.split(",")):
        if not fixture_paths(args.out, args.scale, seed)[1].exists():
            write_fixture(args.out, args.scale, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
