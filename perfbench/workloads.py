"""Child-process side of the thetalab benchmark.

run.py starts this script in a fresh interpreter for every set-up, timed
run, check and traced run, so that harness memos and lru_caches never carry
over from one timed run to the next.  Modes:

    setup   <workload> <seed> <workdir>   generate inputs into <workdir>
    run     <workload> <workdir> [<metrics.json>]
                                          time the in-process workloads; with
                                          a metrics path the run is traced
    cli     <metrics.json> <thetalab argv...>
                                          traced ``thetalab`` command
    check   <workload> <workdir>          compare observations with
                                          references computed here

Each mode prints one JSON object on stdout, except ``cli``, whose stdout is
the command's own.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

# Vertices of the simplex whose barycentric subdivision sd_local_h measures:
# local_h(sd(simplex)) is the derangement polynomial d_n.
SD_VERTICES = 6
# certify_large keeps the subdivided corpus 3-balls above the harness's
# homology cap and up to this many faces, so one pass takes a few seconds.
CERTIFY_MAX_FACES = 2500


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{workload}")


def _relabel(c, rng: random.Random):
    """c with its vertex labels permuted at random."""
    from thetalab import SimplicialComplex

    labels = list(c.vertex_labels)
    image = labels[:]
    rng.shuffle(image)
    rename = dict(zip(labels, image))
    return SimplicialComplex.from_facets(
        [[rename[lab] for lab in c.labels_of(f)] for f in c.facets])


def large_balls():
    """(name, complex) of every subdivided corpus 3-ball certify_large runs."""
    from thetalab import harness, is_homology_ball

    out = []
    for bname, base in harness.corpus():
        if base.dim != 3 or is_homology_ball(base) is None:
            continue
        for kname, maker in harness.subdivision_kinds():
            total = maker(base).total
            if harness.FULL_CHECK_FACE_CAP < len(total.faces()) <= CERTIFY_MAX_FACES:
                out.append((f"{kname}({bname})", total))
    return out


def setup(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload and its manifest."""
    import thetalab
    from thetalab import write_facet_file

    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "sd_local_h":
        rng = _rng(seed, workload)
        labels = set()
        while len(labels) < SD_VERTICES:
            labels.add(f"p{rng.randrange(10 ** 6)}")
        manifest["labels"] = sorted(labels)
    elif workload == "certify_large":
        rng = _rng(seed, workload)
        files = []
        for i, (name, c) in enumerate(large_balls()):
            path = work / f"large{i}.txt"
            write_facet_file(_relabel(c, rng), path)
            files.append({"name": name, "path": str(path)})
        manifest["files"] = files
    elif workload != "verify_all":
        raise SystemExit(f"unknown workload {workload!r}")
    manifest["thetalab"] = thetalab.__file__
    (work / "inputs.json").write_text(json.dumps(manifest))
    return {"ok": True}


# ------------------------------------------------------------- timed runs


def _poly(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def run(workload: str, work: Path, metrics_path: str | None) -> dict:
    """Time one pass of an in-process workload; trace it when asked.

    The tracer goes in after the inputs are loaded, so that the per-layer
    figures cover the timed calls only; the calls look their functions up
    on the thetalab package at call time and so reach the wrappers.
    """
    import thetalab

    manifest = json.loads((work / "inputs.json").read_text())
    if workload == "certify_large":
        inputs = [(f["name"], thetalab.read_facet_file(f["path"]))
                  for f in manifest["files"]]
    elif workload != "sd_local_h":
        raise SystemExit(f"workload {workload!r} has no in-process run")
    tracer = None
    if metrics_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, observed = [], []
    clock = time.perf_counter
    if workload == "sd_local_h":
        base = thetalab.simplex(manifest["labels"])
        t0 = clock()
        result = thetalab.local_h(thetalab.barycentric(base))
        latencies.append(clock() - t0)
        observed.append({"local_h": _poly(result)})
    else:
        for name, c in inputs:
            t0 = clock()
            bd = thetalab.is_homology_ball(c)
            th = thetalab.theta(c, bd) if bd is not None else None
            latencies.append(clock() - t0)
            observed.append({"name": name, "ball": bd is not None,
                             "theta": _poly(th) if th is not None else None})
    if tracer is not None:
        Path(metrics_path).write_text(json.dumps(tracer.metrics()))
    return {"latencies": latencies, "observed": observed}


class _CountingWriter:
    """Text stream that passes writes through and counts the bytes."""

    def __init__(self, stream):
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._stream.write(text)

    def flush(self) -> None:
        self._stream.flush()


def traced_cli(metrics_path: str, argv: list[str]) -> int:
    """Run one thetalab command in this process with the tracer installed."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from thetalab import cli

    out, err = _CountingWriter(sys.stdout), _CountingWriter(sys.stderr)
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = out._stream, err._stream
    sys.stdout.flush()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = out.bytes + err.bytes
    Path(metrics_path).write_text(json.dumps(metrics))
    return code


# ------------------------------------------------------------------ checks


def check(workload: str, work: Path) -> dict:
    """ok flag per observed operation, from references computed here."""
    observed = json.loads((work / "observed.json").read_text())
    if workload == "sd_local_h":
        from thetalab import derangement_poly_by_excedance

        want = _poly(derangement_poly_by_excedance(SD_VERTICES))
        return {"ok": [o.get("local_h") == want for o in observed]}
    if workload == "certify_large":
        from thetalab import theta

        want = {name: _poly(theta(c)) for name, c in large_balls()}
        return {"ok": [bool(o.get("ball")) and o.get("theta") == want.get(o.get("name"))
                       for o in observed]}
    raise SystemExit(f"workload {workload!r} has no check child")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    if mode == "setup":
        result = setup(rest[0], int(rest[1]), Path(rest[2]))
    elif mode == "run":
        result = run(rest[0], Path(rest[1]), rest[2] if len(rest) > 2 else None)
    elif mode == "check":
        result = check(rest[0], Path(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
