"""Distributed swarm learning simulator: hybrid swarm/SGD protocol, baselines,
Byzantine attacks, and convergence/divergence diagnostics."""

from .core import HyperParameters, RngStream, inertia_schedule, sample_coefficients
from .data import Dataset, emd, label_histogram, load_idx, synthetic_blobs
from .model import Batch, ModelSpec, accuracy, gradient, loss
from .swarm import Population, PsState, ScalarReport, WorkerState, run_round

__version__ = "0.1.0"

__all__ = [
    "HyperParameters", "RngStream", "inertia_schedule", "sample_coefficients",
    "Dataset", "emd", "label_histogram", "load_idx", "synthetic_blobs",
    "Batch", "ModelSpec", "accuracy", "gradient", "loss",
    "Population", "PsState", "ScalarReport", "WorkerState", "run_round",
    "__version__",
]
