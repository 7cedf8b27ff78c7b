"""Built-in group catalog: every group the sweeps and the census walk.

The list covers all cyclic groups and products of cyclic groups up to
order 24, the dihedral groups up to order 16 and D24 (D18, D20 and D22 are
missing), and the alternating group on four letters, ordered by (order,
name) so sweep output is deterministic.  Two presentations of
the same abstract group (such as Z2xZ6 and Z2xZ2xZ3) are both kept: the
constructions here are presentation-sensitive.
"""
from __future__ import annotations

from .caps import Caps, caps_from_env
from .groups import FiniteGroup, descriptor_order, make_group, parse_descriptor

BUILTIN_DESCRIPTORS: tuple[str, ...] = (
    "Z1",
    "Z2",
    "Z3",
    "D4",
    "Z2xZ2",
    "Z4",
    "Z5",
    "D6",
    "Z2xZ3",
    "Z6",
    "Z7",
    "D8",
    "Z2xZ2xZ2",
    "Z2xZ4",
    "Z8",
    "Z3xZ3",
    "Z9",
    "D10",
    "Z2xZ5",
    "Z10",
    "Z11",
    "A4",
    "D12",
    "Z12",
    "Z2xZ2xZ3",
    "Z2xZ6",
    "Z3xZ4",
    "Z13",
    "D14",
    "Z14",
    "Z15",
    "D16",
    "Z16",
    "Z2xZ2xZ2xZ2",
    "Z2xZ2xZ4",
    "Z2xZ8",
    "Z4xZ4",
    "Z17",
    "Z18",
    "Z2xZ9",
    "Z3xZ6",
    "Z19",
    "Z20",
    "Z2xZ10",
    "Z2xZ2xZ5",
    "Z4xZ5",
    "Z21",
    "Z3xZ7",
    "Z22",
    "Z2xZ11",
    "Z23",
    "D24",
    "Z24",
    "Z2xZ12",
    "Z2xZ2xZ6",
    "Z2xZ2xZ2xZ3",
    "Z3xZ8",
    "Z4xZ6",
)


def builtin_descriptors(max_order: int | None = None) -> list[str]:
    names = list(BUILTIN_DESCRIPTORS)
    if max_order is not None:
        names = [n for n in names if descriptor_order(parse_descriptor(n)) <= max_order]
    return sorted(names, key=lambda n: (descriptor_order(parse_descriptor(n)), n))


def builtin_groups(max_order: int | None = None, caps: Caps | None = None) -> list[FiniteGroup]:
    caps = caps or caps_from_env()
    return [make_group(name, caps) for name in builtin_descriptors(max_order)]
