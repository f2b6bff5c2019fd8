"""Child processes of the benchmark.

``child.py setup <workload> <seed> <dir>``
    One cold set-up, timed from this process's start: import quadsys and
    make the workload's seeded inputs.  Prints the seconds and a digest of
    the inputs, which must equal the parent's.
``child.py ingest [<run id>]``
    One cold catalog ingest (see controls.py), timed after the import.
    With a run id, also prints the spans of the ingest.
"""

T0 = __import__("time").perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402
from spans import Tracer, spanner  # noqa: E402


def setup(workload: str, seed: int, workdir: Path) -> dict:
    inputs = common.workload_module(workload).setup(seed, workdir)
    return {"setup_s": time.perf_counter() - T0, "digest": inputs.digest}


def ingest(run_id: str | None) -> dict:
    from quadsys import catalog

    tracer = Tracer(run_id) if run_id else None
    sp = spanner(tracer)
    counts = {}
    t0 = time.perf_counter()
    for name in sorted(catalog.GENERATORS):
        with sp("catalog.develop", design=name):
            obj = catalog.GENERATORS[name]()
        counts[name] = len(getattr(obj, "design", obj).blocks)
    for name in ("sqs22_resolutions", "rdgdd24_resolutions", "rdgdd42_resolutions"):
        with sp(f"catalog.{name}"):
            counts[name] = len(getattr(catalog, name)())
    with sp("catalog.sqs28_star"):
        counts["sqs28_star"] = len(catalog.sqs28_star().per_point)
    out = {"ingest_s": time.perf_counter() - t0, "counts": counts}
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def main(argv: list[str]) -> None:
    common.use_checkout_package()
    if argv[0] == "setup":
        out = setup(argv[1], int(argv[2]), Path(argv[3]))
    elif argv[0] == "ingest":
        out = ingest(argv[1] if len(argv) > 1 else None)
    else:
        raise SystemExit(f"unknown child task {argv[0]!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
