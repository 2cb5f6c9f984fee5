"""Set-system instances (orthogonal vectors / hitting set existence) and the
bit-parallel brute-force solver.

Sets over a universe of d elements are stored as Python ints used as
bitsets, so intersection tests are word-parallel for free.
"""

from __future__ import annotations

from dataclasses import dataclass

OV = "ov"
HSE = "hse"


class SetSystemFormatError(ValueError):
    """Raised for malformed set-system text."""


@dataclass
class SetSystemInstance:
    d: int
    list_a: list
    list_b: list
    mode: str

    def __post_init__(self):
        if self.mode not in (OV, HSE):
            raise SetSystemFormatError(f"unknown mode {self.mode!r}")
        for s in list(self.list_a) + list(self.list_b):
            if not (s >= 0 and s.bit_length() <= self.d):
                raise SetSystemFormatError("set exceeds universe size")

    @property
    def na(self):
        return len(self.list_a)

    @property
    def nb(self):
        return len(self.list_b)

    @staticmethod
    def from_sets(sets_a, sets_b, d, mode):
        def pack(s):
            mask = 0
            for x in s:
                if not 0 <= x < d:
                    raise SetSystemFormatError(f"element {x} outside universe [0,{d})")
                mask |= 1 << x
            return mask

        return SetSystemInstance(d, [pack(s) for s in sets_a], [pack(s) for s in sets_b], mode)


def write_set_system(inst):
    """Header ``s <nA> <nB> <d> <OV|HSE>`` then one line per set (A block
    first), space-separated element indices; an empty line is an empty set."""
    lines = [f"s {inst.na} {inst.nb} {inst.d} {inst.mode.upper()}"]
    for mask in list(inst.list_a) + list(inst.list_b):
        lines.append(" ".join(str(x) for x in range(mask.bit_length()) if mask >> x & 1))
    return "\n".join(lines) + "\n"


def read_set_system(text):
    lines = text.splitlines()
    header = None
    body = []
    for raw in lines:
        if header is None:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if parts[0] != "s" or len(parts) != 5:
                raise SetSystemFormatError(f"bad header: {raw!r}")
            counts = _ints(parts[1:4], raw)
            if min(counts) < 0:
                raise SetSystemFormatError(f"negative header field: {raw!r}")
            header = (*counts, parts[4].lower())
        else:
            if raw.strip().startswith("#"):
                continue
            body.append(raw.strip())
    if header is None:
        raise SetSystemFormatError("missing header")
    na, nb, d, mode = header
    # Trailing blank lines beyond the expected count are ignored; interior
    # blank lines are empty sets.
    while len(body) > na + nb and not body[-1]:
        body.pop()
    if len(body) != na + nb:
        raise SetSystemFormatError(
            f"expected {na + nb} set lines, found {len(body)}"
        )
    sets = [_ints(line.split(), line) for line in body]
    return SetSystemInstance.from_sets(sets[:na], sets[na:], d, mode)


def _ints(fields, raw):
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise SetSystemFormatError(f"non-integer field: {raw!r}") from exc


def solve_set_system(inst):
    """Decide the instance by brute force.

    OV: (True, (i, j)) for the first orthogonal pair, else (False, None).
    HSE: (True, i) for the first a intersecting every b, else (False, None).
    """
    if inst.mode == OV:
        for i, a in enumerate(inst.list_a):
            for j, b in enumerate(inst.list_b):
                if a & b == 0:
                    return True, (i, j)
        return False, None
    for i, a in enumerate(inst.list_a):
        if all(a & b for b in inst.list_b):
            return True, i
    return False, None


def random_instance(na, nb, d, mode, rng, density=0.5):
    sets_a = [[x for x in range(d) if rng.random() < density] for _ in range(na)]
    sets_b = [[x for x in range(d) if rng.random() < density] for _ in range(nb)]
    return SetSystemInstance.from_sets(sets_a, sets_b, d, mode)
