"""Loop-based graphic statics for 3D frames.

Decomposes a rigid-jointed frame into a fundamental cycle basis, carries
states of self-stress as six-component bivector areas of dual loops,
recovers per-bar forces and total moments by chain summation, synthesizes
explicit dual-loop geometry, and cross-checks everything against the
classical equilibrium-matrix null-space analysis.
"""

from .chains import (
    Chain0,
    Chain1,
    EdgeId,
    FrameGraph,
    NodeId,
    boundary,
    is_cycle,
)
from .cycles import (
    FundamentalCycle,
    SpanningTree,
    fundamental_cycles,
    spanning_tree,
)
from .diagrams import RealizedDiagram, export_diagrams, realize_state
from .document import (
    BarRecord,
    NodeRecord,
    StructureDocument,
    document_from_graph,
    load_structure,
    parse_state,
    parse_structure,
    serialize_state,
    serialize_structure,
    validate_structure,
)
from .errors import StateError, StructureError
from .report import AnalysisReport, build_report
from .selfstress import (
    AxialCheck,
    BarResultant,
    SelfStressState,
    all_bar_resultants,
    check_axial,
    selfstress_dimension,
)
from .statics import (
    AxialForceVector,
    EquilibriumMatrix,
    StaticsSummary,
    analyze_statics,
    axial_selfstress_basis,
    axial_to_state,
    equilibrium_matrix,
    maxwell_calladine,
)
from .structures import (
    PRISM_CABLES,
    PRISM_STRUTS,
    k5_frame,
    prism_critical_twist,
    prism_frame,
)
from .synthesis import zero_bar_loop
from .wedge import (
    ZERO_BIVECTOR,
    Bivector6,
    DualChain,
    LoopPath,
    Point4,
    chain_area,
    force_of,
    is_simple,
    loop_area,
    moment_of,
)

__version__ = "0.1.0"
