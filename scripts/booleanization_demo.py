#!/usr/bin/env python3
"""Walk through the reflection of the three-element chain into Boolean
algebras and the failure of the analogous reflection from bounded meet
semilattices into bounded distributive lattices, printing each step."""
from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qvbench.adjunction import check_counit_iso, check_unit_mono, counit, free_extension
from qvbench.cli import load_workspace

WORKSPACE = pathlib.Path(__file__).resolve().parent.parent / "workspaces" / "fixtures.qvw"


def main() -> None:
    ws = load_workspace(str(WORKSPACE))
    chain3, four_ba, diamond, diamond_ms = (
        ws.algebras[name] for name in ("Chain3", "FourBA", "Diamond", "DiamondMS")
    )
    dl_to_bool, msl_to_dl = ws.expansions["DLtoBOOL"], ws.expansions["MSLtoDL"]

    fe = free_extension(chain3, dl_to_bool)
    print(f"free Boolean extension of {chain3.name}:")
    print(f"  size {fe.algebra.size}, produced from {fe.factor_count} chain maps")
    print(f"  unit map {fe.unit.mapping} (injective: {fe.unit_injective})")

    eps = counit(four_ba, dl_to_bool)
    print(f"counit at {four_ba.name}: map {eps.mapping} on {eps.source.size} elements")

    fe2 = free_extension(diamond_ms, msl_to_dl)
    print(f"free lattice extension of {diamond_ms.name}:")
    print(f"  size {fe2.algebra.size} (the missing join is adjoined)")
    eps2 = counit(diamond, msl_to_dl)
    print(f"counit at {diamond.name}: map {eps2.mapping} -- not injective")

    print("unit injectivity over all meet-semilattice members up to size 4,")
    print("decided from the seeds (h(a))_h over the base maps h:")
    for A, v in check_unit_mono(msl_to_dl, 4):
        shown = "mono" if v.holds else f"NOT mono: {v.certificate['same-seed']} share a seed"
        print(f"  {A.name}: {shown}")
    print("counit bijectivity over all lattice members up to size 4:")
    for B, v in check_counit_iso(msl_to_dl, 4):
        print(f"  {B.name}: {'iso' if v.holds else 'NOT iso'}")


if __name__ == "__main__":
    main()
