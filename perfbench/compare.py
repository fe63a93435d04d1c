"""Compare the output digests of two benchmark result files.

    python3 perfbench/compare.py perfbench/results/replay-seed1-trace0.json \\
        other/replay-seed1-trace0.json

Cases are matched by id, which does not depend on the seed.  Prints every
case whose stdout digest or certificate JSON digest differs, and every case
present in only one file.  Exits 0 when all shared cases are byte-identical
and both files cover the same cases, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    ca, cb = a["cases"], b["cases"]
    for cid in sorted(ca.keys() | cb.keys()):
        if cid not in cb:
            lines.append(f"only in first:  {cid}")
        elif cid not in ca:
            lines.append(f"only in second: {cid}")
        else:
            x, y = ca[cid], cb[cid]
            if x["stdout_sha256"] != y["stdout_sha256"]:
                lines.append(f"stdout differs: {cid}")
            certs_x, certs_y = x["cert_sha256"] or {}, y["cert_sha256"] or {}
            for key in sorted(certs_x.keys() | certs_y.keys()):
                if certs_x.get(key) != certs_y.get(key):
                    lines.append(f"certificate {key} differs: {cid}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    for path, r in zip(argv, (a, b)):
        env = r["env"]
        print(f"{path}: {r['workload']} seed {r['seed']}, commit {env['commit']}, "
              f"src {env['src_sha256'][:12]}")
    lines = diff(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s) over {len(a['cases'].keys() | b['cases'].keys())} cases")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
