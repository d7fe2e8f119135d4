"""Virtual knots as Gauss diagrams: Carter genus, Reidemeister and
cobordism rewriting, concordance certificates, and slicing search."""

from .diagram import (
    DiagramError,
    GaussDiagram,
    closure,
    connected_sum,
    cut,
    inverse,
    mirror,
    parse_gauss,
    render_gauss,
    reverse,
)
from .canonical import canonical_key, canonicalize
from .surface import carter_genus, carter_report
from .moves import (
    Move,
    MoveError,
    apply_move,
    apply_move_with_inverse,
    enumerate_moves,
    parse_move,
    render_move,
)
from .certificates import (
    CertificateError,
    CobordismCertificate,
    ValidationReport,
    parse_certificate,
    render_certificate,
    replay,
    transport_closure_to_long,
    transport_long_to_closure,
    validate_certificate,
)
from .search import (
    SearchBudget,
    SearchOutcome,
    reduce_diagram,
    search_equivalent,
    search_slice,
)

__all__ = [
    "CertificateError",
    "CobordismCertificate",
    "DiagramError",
    "GaussDiagram",
    "Move",
    "MoveError",
    "SearchBudget",
    "SearchOutcome",
    "ValidationReport",
    "apply_move",
    "apply_move_with_inverse",
    "canonical_key",
    "canonicalize",
    "carter_genus",
    "carter_report",
    "closure",
    "connected_sum",
    "cut",
    "enumerate_moves",
    "inverse",
    "mirror",
    "parse_certificate",
    "parse_gauss",
    "parse_move",
    "reduce_diagram",
    "render_certificate",
    "render_gauss",
    "render_move",
    "replay",
    "reverse",
    "search_equivalent",
    "search_slice",
    "transport_closure_to_long",
    "transport_long_to_closure",
    "validate_certificate",
]
