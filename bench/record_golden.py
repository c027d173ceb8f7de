"""Record golden.json: the exit code of every paper op and the sha256 of the
artifacts that must stay byte-identical (roots.csv, localization.json and the
mode CSVs) for both shipped configs.

Run from the repository root after a deliberate change to the artifacts:

    python3 bench/record_golden.py
"""

import json
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import Paper, _sha256  # noqa: E402


def main() -> None:
    golden = {"exit_codes": {}, "sha256": {}}
    paper = Paper(ROOT, seed=0, golden=golden)
    try:
        for op in Paper.OPS:
            cfg, tag, _ = op
            out, code = paper.run(op)
            key = f"{cfg}/{tag}"
            golden["exit_codes"][key] = code
            names = Paper.ARTIFACTS.get(tag, ())
            if names:
                golden["sha256"][key] = {n: _sha256(os.path.join(out, n)) for n in names}
    finally:
        paper.close()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
