"""Resource caps and run configuration.

Two named profiles exist: "desk" (the default, sized for interactive use)
and "extended" (larger sweeps, e.g. order-2p checks at p=7).  The
GCG_CAPS_PROFILE environment variable selects the default profile.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import DescriptorError


@dataclass(frozen=True)
class Caps:
    order_cap: int = 256          # largest group order make_group will build
    bit_budget: int = 24          # orbit count cap for connection-set enumeration
    aut_node_budget: int = 500_000  # refinement-tree nodes per automorphism search
    regular_search_budget: int = 200_000  # stabilizer-chain nodes per regular-subgroup search
    sweep_instance_budget: int = 50_000   # checks per theorem sweep: sets, (spec, phi) pairs or layers


PROFILES = {
    "desk": Caps(),
    "extended": Caps(
        bit_budget=28,
        aut_node_budget=2_000_000,
        regular_search_budget=1_000_000,
        sweep_instance_budget=500_000,
    ),
}


def caps_from_env() -> Caps:
    """Caps for the profile named by GCG_CAPS_PROFILE (default "desk")."""
    name = os.environ.get("GCG_CAPS_PROFILE", "desk")
    if name not in PROFILES:
        raise DescriptorError(f"unknown caps profile {name!r}; expected one of {sorted(PROFILES)}")
    return PROFILES[name]


def with_overrides(caps: Caps, *, aut: int | None = None, bits: int | None = None) -> Caps:
    """Apply CLI-style overrides to a caps profile."""
    out = caps
    if aut is not None:
        out = replace(out, aut_node_budget=aut)
    if bits is not None:
        out = replace(out, bit_budget=bits)
    return out
