"""Channel composition operators, g-vulnerability leakage measurement,
and equilibrium solvers for defender/attacker leakage games."""

from .channels import (
    Channel,
    IndexDistribution,
    binary_hidden,
    binary_visible,
    equivalent,
    hidden_choice,
    visible_choice,
    zero_extend,
)
from .games import (
    GameSolution,
    LeakageGame,
    audit_hierarchy,
    mixed_to_behavioral,
    payoff_matrix,
    solve,
)
from .labels import format_label, parse_label, tag
from .matrix import LabeledMatrix, concat, matrix_sum, scalar_mul
from .minimax import (
    closed_form_2x2,
    fictitious_play,
    solve_convex_linear_game,
    solve_convex_linear_games,
    solve_matrix_game,
)
from .simplex import LinearProgram, LPSolution, lp_solve
from .vuln import (
    Prior,
    VulnMeasure,
    leakage,
    posterior_vuln,
    posterior_vuln_mc,
    prior_vuln,
)

__version__ = "0.1.0"

__all__ = [
    "Channel", "IndexDistribution", "binary_hidden", "binary_visible",
    "equivalent", "hidden_choice", "visible_choice", "zero_extend",
    "GameSolution", "LeakageGame", "audit_hierarchy", "mixed_to_behavioral",
    "payoff_matrix", "solve",
    "format_label", "parse_label", "tag",
    "LabeledMatrix", "concat", "matrix_sum", "scalar_mul",
    "LinearProgram", "LPSolution", "closed_form_2x2", "fictitious_play",
    "lp_solve", "solve_convex_linear_game", "solve_convex_linear_games",
    "solve_matrix_game",
    "Prior", "VulnMeasure", "leakage",
    "posterior_vuln", "posterior_vuln_mc", "prior_vuln",
]
