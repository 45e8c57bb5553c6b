"""The bits of the solves: every catalog instance with a Legendre kernel,
at eight seeded points, solved singly and as one batch by ``left_prox``,
``left_env``, ``right_prox`` (singly: it takes one point) and
``left_lpsubdiff_definitional``. Each value and each minimizer is kept as
``float.hex`` in ``data/solves_bits.json``, so a change that moves one bit
of a solve fails here, and a change meant to move bits regenerates the
file and names the moved rows.

``python tests/test_bits.py`` rewrites the file from the current code.
"""

import json
import pathlib
import zlib

import numpy as np

from bregmanprox import proxenv
from bregmanprox.catalog import get_instance, instance_names
from bregmanprox.errors import BregmanError
from bregmanprox.numerics import sample_inset
from bregmanprox.proxenv import left_env, left_prox, right_prox
from bregmanprox.subdiff import left_lpsubdiff_definitional

DATA = pathlib.Path(__file__).parent / "data" / "solves_bits.json"
N_POINTS = 8


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _prox(res) -> list[str]:
    return _hex([res.value, *res.minimizers])


def _outcome(solve):
    """What ``solve()`` returns, or the name of the error it raises."""
    try:
        return solve()
    except BregmanError as exc:
        return type(exc).__name__


def _points(name: str):
    """(points, slopes): eight points across the interior of the y grid
    and eight certificate slopes u in [-1.5, 1.5], seeded by the name."""
    eng = proxenv.engine(get_instance(name))
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    ys = sample_inset(rng, eng.y_grid.lo, eng.y_grid.hi, N_POINTS)
    return ys, rng.uniform(-1.5, 1.5, N_POINTS)


def _fresh(inst):
    """Build the instance's engine anew: no envelope memo carries over."""
    proxenv._ENGINES.pop(inst, None)


def solves(name: str) -> dict:
    """The hex bits of every solve of one instance."""
    inst = get_instance(name)
    ys, us = _points(name)
    _fresh(inst)
    single = {
        "left_prox": [_outcome(lambda: _prox(left_prox(inst, y))) for y in ys.tolist()],
        "left_env": [_outcome(lambda: _hex([left_env(inst, y)])) for y in ys.tolist()],
        "right_prox": [_outcome(lambda: _prox(right_prox(inst, y))) for y in ys.tolist()],
        "certificate": [_outcome(lambda: _hex(left_lpsubdiff_definitional(inst, y, u)))
                        for y, u in zip(ys.tolist(), us.tolist())],
    }
    _fresh(inst)
    batch = {
        "left_prox": _outcome(lambda: [_prox(r) for r in left_prox(inst, ys)]),
        "left_env": _outcome(lambda: _hex(left_env(inst, ys))),
        "certificate": _outcome(lambda: [_hex(row) for row in zip(
            *left_lpsubdiff_definitional(inst, ys, us))]),
    }
    return {"points": _hex(ys), "slopes": _hex(us), "single": single, "batch": batch}


def legendre_instances() -> list[str]:
    return [n for n in instance_names() if get_instance(n).kernel.is_legendre]


def scan() -> dict:
    return {name: solves(name) for name in legendre_instances()}


def test_the_solves_keep_their_bits():
    want = json.loads(DATA.read_text())
    assert sorted(want) == sorted(legendre_instances())
    moved = []
    for name in legendre_instances():
        got = solves(name)
        for kind in ("single", "batch"):
            moved += [f"{name} {kind} {solve}" for solve in want[name][kind]
                      if got[kind][solve] != want[name][kind][solve]]
        assert got["points"] == want[name]["points"]
    assert not moved, f"solves moved: {moved}"


if __name__ == "__main__":
    DATA.write_text(json.dumps(scan(), indent=1) + "\n")
