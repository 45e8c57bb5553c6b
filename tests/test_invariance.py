"""Verdicts that must not depend on what does not matter mathematically.

The catalog suite must report no violated implication at any seed. At the
seeds below it does: ex420 dfne reads ``c-subdiff-monotone`` False, so
``a-f-convex => c-subdiff-monotone`` and ``e-dfne => c-subdiff-monotone``
are violated. The monotonicity test compares pair products of the hull
route's slope error (about 4e-8 near the window's ends) and |x1 - x2|
(about 15) with the absolute ``TOL_MONO`` (ROADMAP item 10: certified
verdicts). Each seed is a strict xfail until a tolerance that knows the
error of its ``worst`` removes the marker; an XPASS means a verdict moved.

The range assumption is an engine fact of kernel, f, lambda and grid: a
copy of an instance under another name reads the same witnesses.

Mirroring f to f(-x) under an even kernel (energy, Hellinger, quartic,
cubic) leaves every theorem's hypotheses and conclusions as they are, so
each of the 10 catalog instances on such a kernel, mirrored under the same
name (hence with the same seeds), should read the same verdicts at the
seeds 0, 7 and 42. The rows that move are listed in
``data/mirror_seeds.json``; the test fails on a row outside that corpus and
on a listed row that no longer reads as listed, so each fix shrinks it.
``python tests/test_invariance.py`` rewrites the corpus from the current code.
"""

import json
import pathlib
import zlib

import pytest

from bregmanprox.catalog import Instance, get_instance, instance_names, mirror
from bregmanprox.errors import HypothesesUnmetError
from bregmanprox.kernels import CUBIC_ABS, ENERGY, HELLINGER, QUARTIC
from bregmanprox.proxenv import engine
from bregmanprox.verify import ALL_CHECKS, run_suite

_ITEM_10 = ("ex420 dfne: a-f-convex => c-subdiff-monotone and e-dfne => c-subdiff-monotone, "
            "violated through the absolute TOL_MONO (ROADMAP item 10)")

CORPUS = pathlib.Path(__file__).parent / "data" / "mirror_seeds.json"
EVEN_KERNELS = (ENERGY, HELLINGER, QUARTIC, CUBIC_ABS)
SEEDS = (0, 7, 42)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_10)
@pytest.mark.parametrize("seed", [67, 116, 3707])
def test_the_catalog_suite_violates_no_implication_at_any_seed(seed):
    reports = run_suite(instance_names(), seed=seed)
    assert [f"{r.instance}/{r.theorem}" for r in reports if r.violated] == []


@pytest.mark.parametrize("name", ["ex310", "ex411"])
def test_the_range_assumption_does_not_depend_on_the_instance_name(name):
    inst = get_instance(name)
    renamed = Instance(name + "_renamed", inst.kernel, inst.fn, inst.lam)
    assert engine(renamed).range_assumption == engine(inst).range_assumption


def _verdicts(inst, seed):
    """Each check's (status, truth of each condition, violated implications)
    as the seed-``seed`` suite runs it on ``inst``."""
    out = {}
    for theorem, check in ALL_CHECKS:
        child = (seed * 1000003 + zlib.crc32(f"{inst.name}:{theorem}".encode())) & 0x7FFFFFFF
        try:
            rep = check(inst, seed=child)
        except HypothesesUnmetError:
            out[theorem] = "hypotheses-unmet", {}, []
            continue
        out[theorem] = (rep.status, {c.label: bool(c.holds) for c in rep.conditions},
                        sorted(" & ".join(i.premises) + " => " + i.conclusion for i in rep.violated))
    return out


def _key(row):
    return row["instance"], row["theorem"], row["seed"]


def scan() -> list[dict]:
    """Every (instance, theorem, seed) row whose status, condition truths or
    violated implications move under the mirror, with what moved."""
    out = []
    for inst in map(get_instance, instance_names()):
        if inst.kernel not in EVEN_KERNELS:
            continue
        mirrored = Instance(inst.name, inst.kernel, mirror(inst.fn), inst.lam)
        for seed in SEEDS:
            base, seen = _verdicts(inst, seed), _verdicts(mirrored, seed)
            for theorem, (status, holds, violated) in base.items():
                m_status, m_holds, m_violated = seen[theorem]
                moved = sorted(label for label in holds.keys() | m_holds.keys()
                               if holds.get(label) != m_holds.get(label))
                if m_status != status:
                    moved.insert(0, f"status: {status} -> {m_status}")
                if moved or m_violated != violated:
                    out.append({"instance": inst.name, "theorem": theorem, "seed": seed,
                                "moved": moved, "violated": m_violated})
    return sorted(out, key=_key)


def test_the_mirror_moves_only_the_listed_rows():
    want = {_key(r): r for r in json.loads(CORPUS.read_text())}
    got = {_key(r): r for r in scan()}
    assert sorted(got.keys() - want.keys()) == [], "rows outside the corpus move"
    assert sorted(want.keys() - got.keys()) == [], "listed rows stopped moving"
    assert got == want


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(scan(), indent=1) + "\n")
