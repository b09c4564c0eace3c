"""Write the expected outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Runs each `verify` workload once and the query-mix batch of the default
seed, and refuses to write anything unless every check passes and every
query passes the independent checks of ``queries.py``.  Run it only on a
commit whose outputs are known to be right: the files it writes are the
gate for every later run.
"""

from __future__ import annotations

import json
import sys

from worker import (DEFAULT_SEED, EXPECTED, VERIFY, Workload, batch_digest, digest,
                    invoke, load_program)


def main() -> int:
    cli = load_program()
    EXPECTED.mkdir(exist_ok=True)

    outputs = {}
    for name, runs in VERIFY.items():
        outputs[name] = []
        for argv in runs:
            code, text = invoke(cli, argv)
            lines = text.splitlines()
            if code != 0 or not lines or not all(l.startswith("PASS ") for l in lines):
                print(f"{' '.join(argv)} did not pass (exit {code}):\n{text}",
                      file=sys.stderr)
                return 1
            outputs[name].append(lines)

    work = Workload(cli, "query-mix", DEFAULT_SEED, digests=False)
    results = [invoke(cli, q["argv"]) for q in work.ops]
    work.check(results)
    if work.failed:
        print("\n".join(work.failures), file=sys.stderr)
        return 1

    (EXPECTED / "verify.json").write_text(json.dumps(outputs, indent=1) + "\n")
    (EXPECTED / f"query-mix-seed{DEFAULT_SEED}.json").write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "batch": batch_digest(work.ops),
        "stdout": [digest(text) for _, text in results],
    }, indent=0) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
