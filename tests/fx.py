"""The objects of workspaces/fixtures.qvw, parsed once, under the names the
tests use."""
from pathlib import Path

from qvbench.adjunction import PpExpansionSpec
from qvbench.parser import parse_workspace

WORKSPACE = Path(__file__).resolve().parent.parent / "workspaces" / "fixtures.qvw"
_ws = parse_workspace(WORKSPACE.read_text(encoding="utf-8"))


def _get(field: str, names: str) -> tuple:
    return tuple(getattr(_ws, field)[name] for name in names.split())


BDL, BA, MSL, MON, BIMP = _get("signatures", "BDL BA MSL MON BIMP")
CHAIN2, CHAIN3, CHAIN4, DIAMOND, TWO_BA, FOUR_BA, CHAIN2_MS, DIAMOND_MS, MIN_MON, TWO_IMP = _get(
    "algebras", "Chain2 Chain3 Chain4 Diamond TwoBA FourBA Chain2MS DiamondMS MinMon TwoImp"
)
DL, BOOL, MSLQ, MONQ, BIMPQ, DLAX = _get("quasivarieties", "DL BOOL MSLQ MONQ BIMPQ DLAX")
COMPL, INV, COMPL_PADDED, JOIN_WITH_COMPL = _get("ppops", "compl inv complpad joincompl")
DL_TO_BOOL, MSL_TO_DL, DL_TO_BIMP, DL_TRIVIAL, PP_COMPL, PP_JC = _get(
    "expansions", "DLtoBOOL MSLtoDL DLtoBIMP DLtriv DLcompl DLjc"
)
NOT_TO_IMP, IMP_TO_NOT = _get("translations", "notToImp impToNot")
PP_EMPTY = PpExpansionSpec(DL, ())
DL_AXIOMS = DLAX.axioms
