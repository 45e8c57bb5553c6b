"""The rescaling scan: (f, lam) -> (b f, lam / b) and (kappa, lam) ->
(L kappa, L lam) leave the prox unchanged, since f + D_{s kappa}/(s lam) =
f + D_kappa/lam, so every harness row should read the same at every scale.

The scan runs every ``ALL_CHECKS`` entry with the seed-42 suite's child
seeds on six instances under both rescalings at the scales 10^-2, 10^-1.5,
..., 10^2. A row that moves (in status or in the truth of a condition) or
that violates an implication is a defect or a tolerance artifact; the known
ones are listed in ``data/rescaling_seed42.json``. The test fails on a row
outside that corpus, and on a listed row that no longer reads as listed, so
each fix shrinks the corpus visibly.

``python tests/test_rescaling.py`` rewrites the corpus from the current code.
"""

import json
import pathlib
import zlib

import numpy as np

from bregmanprox.catalog import Instance, get_instance, shift_scale
from bregmanprox.errors import HypothesesUnmetError
from bregmanprox.kernels import scale_kernel
from bregmanprox.verify import ALL_CHECKS

CORPUS = pathlib.Path(__file__).parent / "data" / "rescaling_seed42.json"
INSTANCES = ("ex411", "euclid_abs", "shannon_abs", "ex419", "ex420", "hell_halfk")
LOG10_SCALES = np.arange(-2.0, 2.25, 0.5)
SEED = 42


def _rescaled(inst, kind, b):
    if kind == "f":
        return Instance(inst.name, inst.kernel, shift_scale(inst.fn, 0.0, b, 0.0), inst.lam / b)
    return Instance(inst.name, scale_kernel(inst.kernel, b), inst.fn, inst.lam * b)


def _row(check, inst, seed):
    """(status, truth of each condition, violated implications) of one check."""
    try:
        rep = check(inst, seed=seed)
    except HypothesesUnmetError:
        return "hypotheses-unmet", {}, []
    return (rep.status, {c.label: bool(c.holds) for c in rep.conditions},
            sorted(" & ".join(i.premises) + " => " + i.conclusion for i in rep.violated))


def _key(row):
    return row["rescaling"], row["instance"], row["theorem"], row["log10_scale"]


def scan() -> list[dict]:
    """Every (rescaling, instance, theorem, scale) row that moves or
    violates an implication, with what moved, in a fixed order. Each
    instance serves all seven checks, as in the suite."""
    out = []
    for name in INSTANCES:
        inst = get_instance(name)
        seeds = {theorem: (SEED * 1000003 + zlib.crc32(f"{name}:{theorem}".encode())) & 0x7FFFFFFF
                 for theorem, _ in ALL_CHECKS}
        base = {theorem: _row(check, inst, seeds[theorem]) for theorem, check in ALL_CHECKS}
        for kind in ("f", "kappa"):
            for e in LOG10_SCALES.tolist():
                scaled = _rescaled(inst, kind, 10.0 ** e)
                for theorem, check in ALL_CHECKS:
                    status, holds, _ = base[theorem]
                    s_status, s_holds, violated = _row(check, scaled, seeds[theorem])
                    moved = sorted(label for label in holds.keys() | s_holds.keys()
                                   if holds.get(label) != s_holds.get(label))
                    if s_status != status:
                        moved.insert(0, f"status: {status} -> {s_status}")
                    if moved or violated:
                        out.append({"rescaling": kind, "instance": name, "theorem": theorem,
                                    "log10_scale": e, "moved": moved, "violated": violated})
    return sorted(out, key=_key)


def test_rescaling_moves_only_the_listed_rows():
    want = {_key(r): r for r in json.loads(CORPUS.read_text())}
    got = {_key(r): r for r in scan()}
    assert sorted(got.keys() - want.keys()) == [], "rows outside the corpus move"
    assert sorted(want.keys() - got.keys()) == [], "listed rows stopped moving"
    assert got == want


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(scan(), indent=1) + "\n")
