"""Steiner quadruple systems with resolvable derived designs.

A construction-and-verification engine: orbit development of base-block
systems, group divisible designs filled from congruence-rule transversal
designs, star certificates, and the quadrupling construction that turns a
certified 28-point system into a 112-point system whose derived design at
every point resolves.  Every structural claim is checked exhaustively; an
independent exact-cover search oracle cross-checks resolvability on small
instances.
"""

from .core import (
    Block,
    ConstructionError,
    DataIntegrityError,
    Design,
    DesignError,
    DuplicateBlockError,
    Gdd,
    Label,
    ParameterError,
    Resolution,
    Shift,
    TableError,
    VerifyReport,
    admissible,
    derived_design,
    derived_frame,
    expected_block_count,
    make_design,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from .star import (
    StarCertificate,
    StarGroup,
    StarPointCertificate,
    verify_star,
    verify_star_point,
)

# The names of the catalog, the quadrupling construction and the search
# oracle, each loaded from its module on first use (PEP 562), so a process
# that runs none of them, such as ``quadsys report``, does not compile them.
_LAZY = {
    name: module
    for module, names in (
        ("catalog", (
            "CongruenceRule", "GENERATORS", "develop", "fill_gdd", "rdgdd24",
            "rdgdd24_resolutions", "rdgdd42", "rdgdd42_resolutions", "sqs8", "sqs14",
            "sqs16", "sqs22", "sqs22_resolutions", "sqs28", "sqs28_star",
        )),
        ("quadruple", ("QuadrupleAssembly", "boolean_sqs16", "construct_rdsqs_4v")),
        ("resolver", ("SearchOutcome", "confirm_rds", "find_parallel_class", "find_resolution")),
    )
    for name in names
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
