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
from .catalog import (
    CongruenceRule,
    GENERATORS,
    develop,
    fill_gdd,
    rdgdd24,
    rdgdd24_resolutions,
    rdgdd42,
    rdgdd42_resolutions,
    sqs8,
    sqs14,
    sqs16,
    sqs22,
    sqs22_resolutions,
    sqs28,
    sqs28_star,
)
from .quadruple import (
    QuadrupleAssembly,
    boolean_sqs16,
    construct_rdsqs_4v,
)
from .resolver import SearchOutcome, confirm_rds, find_parallel_class, find_resolution
from .star import (
    StarCertificate,
    StarGroup,
    StarPointCertificate,
    verify_star,
    verify_star_point,
)

__version__ = "0.1.0"
