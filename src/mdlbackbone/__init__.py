"""Parameter-free MDL backbones for weighted networks, with classical
baselines, evaluation metrics, synthetic generators, and percolation
analytics."""

from .errors import DomainError, ParseError
from .graph import (
    Backbone,
    WeightedGraph,
    backbone_from_edge_subset,
    backbone_from_flags,
    collapse_to_undirected,
    directed_parents,
    directed_view,
    neighborhoods,
    parse_edge_list,
    serialize_edge_list,
)
from .objectives import ObjectiveSpec, description_length
from .solver import (
    BackboneResult,
    empty_backbone_dls,
    greedy_global,
    greedy_local,
    inverse_compression_ratio,
    result_to_dict,
)
from .baselines import (
    disparity_filter,
    disparity_filter_top_e,
    high_salience_skeleton,
    percolation_backbone,
    salience_table,
)
from .metrics import (
    BackboneMetrics,
    hellinger_strength_distance,
    jaccard_similarity,
    reachability_ratio,
    summarize,
)
from .synth import (
    dirichlet_multinomial_weights,
    plant_weights_canonical,
    random_regular_directed,
)
from .percolation import (
    backbone_percolation_study,
    contact_transmission,
    critical_probability,
    message_passing_cluster,
    nb_leading_eigenvalue,
)

__version__ = "0.1.0"
