"""Contrastive machine unlearning at desk scale.

Train a small classifier, remove the influence of chosen samples or an
entire class by contrasting their embeddings against the remaining
data, and verify the result with accuracy goals and a
membership-inference attack. Everything is deterministic in its seeds.
"""
from . import errors
from .data import (
    Batch,
    Dataset,
    TaskSpec,
    UnlearnTask,
    batches,
    generate_synthetic,
    load_csv,
    make_task,
    sample_remaining,
    save_csv,
    standardize_pair,
)
from .engine import (
    EngineConfig,
    RunRecord,
    check_termination_class,
    check_termination_sample,
    retrain,
    train,
    unlearn_contrastive,
    unlearn_finetune,
    unlearn_neggrad,
)
from .evaluation import (
    AttackModel,
    EvaluationReport,
    GeometryReport,
    MiaReport,
    accuracy,
    attack_features,
    embedding_geometry,
    evaluate,
    fit_attack_model,
    run_mia,
)
from .losses import (
    ContrastSets,
    LossConfig,
    build_contrast_sets,
    class_unlearn_loss,
    combined_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from .model import (
    ModelArchitecture,
    ModelParameters,
    encode,
    forward,
    head_logits,
    init_parameters,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from .tensor import GradTape, Tensor

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "Dataset",
    "TaskSpec",
    "UnlearnTask",
    "batches",
    "generate_synthetic",
    "load_csv",
    "make_task",
    "sample_remaining",
    "save_csv",
    "standardize_pair",
    "EngineConfig",
    "RunRecord",
    "check_termination_class",
    "check_termination_sample",
    "retrain",
    "train",
    "unlearn_contrastive",
    "unlearn_finetune",
    "unlearn_neggrad",
    "AttackModel",
    "EvaluationReport",
    "GeometryReport",
    "MiaReport",
    "accuracy",
    "attack_features",
    "embedding_geometry",
    "evaluate",
    "fit_attack_model",
    "run_mia",
    "ContrastSets",
    "LossConfig",
    "build_contrast_sets",
    "class_unlearn_loss",
    "combined_loss",
    "cross_entropy_loss",
    "sample_unlearn_loss",
    "ModelArchitecture",
    "ModelParameters",
    "encode",
    "forward",
    "head_logits",
    "init_parameters",
    "load_checkpoint",
    "predict_labels",
    "save_checkpoint",
    "GradTape",
    "Tensor",
    "errors",
    "__version__",
]
