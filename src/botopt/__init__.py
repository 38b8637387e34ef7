"""Botnet flow classification with a Bayesian-optimized decision tree."""

from .bayesopt import (
    Dim,
    SearchSpace,
    Trace,
    Trial,
    default_dt_space,
    optimize,
    propose_next,
    write_trace,
)
from .dtree import HyperParams, TreeModel, dump_tree, fit_tree, predict_many
from .gp import (
    GPModel,
    KernelParams,
    default_kernel_grid,
    gp_extend,
    gp_fit,
    tune_kernel,
)
from .ingest import (
    Dataset,
    SplitPair,
    class_counts,
    load_flows,
    stratified_split,
    write_flows,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    compute_metrics,
    confusion,
    metrics_to_text,
    pca2,
    write_pca_csv,
)
from .pipeline import (
    DEFAULT_HP,
    PUBLISHED_REFERENCE,
    PipelineConfig,
    PipelineError,
    RunReport,
    report_to_text,
    run_pipeline,
)
from .preprocess import (
    Scaler,
    SmoteConfig,
    apply_minmax,
    fit_minmax,
    scale_dataset,
    smote,
    smote_audit,
)
from .synthetic import gaussian_clusters

__version__ = "0.1.0"
