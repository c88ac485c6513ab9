"""leveltopo: train small feed-forward networks and analyze their level-set topology.

Narrow networks (hidden widths at most the input dimension, one-to-one-ish
activations) can only realize functions whose level sets reach out to
infinity; slightly wider networks can close a decision boundary into a loop.
This package trains both kinds at desk scale, constructs the non-singular
family behind that dichotomy, extracts isocontours with marching squares,
and classifies their path components as bounded or boundary-touching.
"""

from .activations import (Activation, ActivationKind, RELU, SIGMOID, TANH,
                          activation_apply, one_to_one_relu, one_to_one_relu_bound,
                          uniform_deviation)
from .network import (Layer, Network, Window, decompose, forward_batch,
                      load_network, save_network, scalar_output)
from .nonsingular import (NonSingularityReport, NonSingularizationError,
                          check_injective_on_grid, is_nonsingular, make_nonsingular,
                          pad_to_width, scaled_det)
from .training import (Dataset, Init, Loss, Optimizer, TrainConfig, TrainingDiverged,
                       accuracy, gen_ring_dataset, init_weights, load_dataset,
                       loss_and_grad, save_dataset, train, train_stack)
from .fields import (RegionComponents, ScalarField, network_scalar_fn, region_components,
                     sample_grid)
from .contours import (Classification, LevelComponent, SegmentSoup, classify_component,
                       component_encloses, extract_components, link_components,
                       marching_squares)
from .analysis import (CompositionReport, CompositionToleranceError, ConstructionError,
                       ExperimentSpec, FunctionLink, NonSingularSweepSpec, SeedOutcome,
                       SweepResult, analyze_level, composition_tolerance_check,
                       random_nonsingular_sweep, run_experiment)

__version__ = "0.1.0"
