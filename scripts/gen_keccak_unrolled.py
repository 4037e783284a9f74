#!/usr/bin/env python3
"""Generate (or check) the unrolled Keccak-f[1600] pinned in keccak.py.

The permutation in :mod:`repro.crypto.keccak` is a fully unrolled
theta/rho/pi/chi/iota round over 25 local variables.  Hand-editing 85
lines of lane shuffling is how transcription bugs happen, so the round
body is *generated* from the FIPS 202 index algebra by this script and
pinned into the source between ``# BEGIN GENERATED`` / ``# END
GENERATED`` markers.

Usage::

    python scripts/gen_keccak_unrolled.py            # print the function
    python scripts/gen_keccak_unrolled.py --check    # diff against keccak.py

``--check`` exits non-zero if the pinned code has drifted from what this
generator produces (run it after touching either side).
"""

from __future__ import annotations

import sys
from pathlib import Path

KECCAK_PY = Path(__file__).resolve().parent.parent / \
    "src" / "repro" / "crypto" / "keccak.py"

BEGIN = "# BEGIN GENERATED (scripts/gen_keccak_unrolled.py)"
END = "# END GENERATED"


def _rho_offsets():
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


def generate() -> str:
    """Emit the unrolled permutation body (the text between markers)."""
    off = _rho_offsets()
    lines = []
    emit = lines.append

    emit("def keccak_f1600(lanes: list) -> list:")
    emit('    """Apply the Keccak-f[1600] permutation to 25 lanes '
         '(5x5, row-major x).')
    emit("")
    emit("    ``lanes`` is a flat list of 25 integers where lane "
         "``(x, y)`` lives at")
    emit("    index ``x + 5 * y``.  A new list is returned; the input "
         "is not mutated.")
    emit("")
    emit("    The round body is fully unrolled over 25 locals "
         "(generated and pinned")
    emit("    by ``scripts/gen_keccak_unrolled.py``); the loop form it "
         "is tested")
    emit("    against is :func:`repro.crypto.reference.keccak_f1600`.")
    emit('    """')
    emit("    if PERF.enabled:")
    emit('        PERF.inc("crypto.keccak.permutations")')
    emit("    m = _MASK64")
    names = [f"a{i}" for i in range(25)]
    emit("    (" + ", ".join(names[:13]) + ",")
    emit("     " + ", ".join(names[13:]) + ") = lanes")
    emit("    for rc in ROUND_CONSTANTS:")
    emit("        # theta")
    for x in range(5):
        terms = " ^ ".join(f"a{x + 5 * y}" for y in range(5))
        emit(f"        c{x} = {terms}")
    for x in range(5):
        hi, lo = (x + 1) % 5, (x - 1) % 5
        emit(f"        d{x} = c{lo} ^ (((c{hi} << 1) | (c{hi} >> 63)) "
             "& m)")
    emit("        # rho + pi (theta's d folded into the rotation input)")
    for x in range(5):
        for y in range(5):
            src = x + 5 * y
            nx, ny = y, (2 * x + 3 * y) % 5
            dst = nx + 5 * ny
            s = off[x][y]
            if s == 0:
                emit(f"        b{dst} = a{src} ^ d{x}")
            else:
                emit(f"        t = a{src} ^ d{x}")
                emit(f"        b{dst} = ((t << {s}) | (t >> {64 - s})) "
                     "& m")
    emit("        # chi + iota")
    for y in range(5):
        for x in range(5):
            i = x + 5 * y
            n1 = (x + 1) % 5 + 5 * y
            n2 = (x + 2) % 5 + 5 * y
            tail = " ^ rc" if i == 0 else ""
            emit(f"        a{i} = (b{i} ^ ((b{n1} ^ m) & b{n2}))"
                 f"{tail}")
    emit("    return [" + ", ".join(names[:13]) + ",")
    emit("            " + ", ".join(names[13:]) + "]")
    return "\n".join(lines) + "\n"


def pinned() -> str:
    """Extract the currently pinned text from keccak.py."""
    source = KECCAK_PY.read_text()
    try:
        _, rest = source.split(BEGIN + "\n", 1)
        body, _ = rest.split("\n" + END, 1)
    except ValueError:
        raise SystemExit(f"markers not found in {KECCAK_PY}")
    return body + "\n"


def main(argv) -> int:
    generated = generate()
    if "--check" in argv:
        if pinned() != generated:
            sys.stderr.write(
                "gen_keccak_unrolled: pinned code in keccak.py differs "
                "from generator output\n(regenerate with: python "
                "scripts/gen_keccak_unrolled.py)\n")
            return 1
        print("gen_keccak_unrolled: pinned code is up to date")
        return 0
    sys.stdout.write(generated)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
