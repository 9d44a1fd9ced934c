"""Record every closed_forms reply as the reference the benchmark checks against.

    python3 perfbench/record_reference.py

Run it only when a change of program output is intended; the file it writes,
``perfbench/reference/closed_forms.json``, is committed.
"""

from __future__ import annotations

import json

from run import REFERENCE, send
from workloads import closed_form_requests, request_key


def main() -> None:
    reference = {}
    for argv in closed_form_requests():
        reply = send(argv)
        reference[request_key(argv)] = {"rc": reply.rc, "lines": reply.out.splitlines()}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} replies to {REFERENCE}")


if __name__ == "__main__":
    main()
