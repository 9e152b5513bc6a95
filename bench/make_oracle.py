"""Write bench/oracle.json: the expected certify fields for each bundled
candidate at each benchmark bound.

Run from the repository root, at a commit whose reports are known good:

    python3 bench/make_oracle.py

The disguised workload reuses the bound-8 entries, since its presentations
present the same modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from lamprigid import cli  # noqa: E402


def main() -> int:
    oracle: dict = {}
    for bound in sorted({w.qu_bound for w in workloads.WORKLOADS.values()}):
        entries = oracle[str(bound)] = {}
        for name in workloads.CANDIDATES:
            text = workloads.canonical_text(workloads.load_bundled(name))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["certify", text, "--qu-bound", str(bound), "--seed", "0", "--json"])
            entries[name] = workloads.checked_fields(code, json.loads(out.getvalue()))
            print(f"bound {bound} {name}: exit {code}", file=sys.stderr)
    with open(workloads.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
