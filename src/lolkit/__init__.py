"""Supervised low-rank projection toolkit."""

from .model import (
    ClassStats,
    DataMatrix,
    GaussianModel,
    LabeledDataset,
    Projection,
    center_class_conditional,
    center_pooled,
    class_stats,
)
from .embeddings import (
    embed,
    fit_lfl,
    fit_lol,
    fit_lrcca,
    fit_pca,
    fit_pls,
    fit_qoq,
    fit_rlol,
    fit_rp,
    fit_rrlda,
    load_projection,
    mean_difference_matrix,
    save_projection,
)
from .classifiers import (
    bayes_error_two_class,
    fit_lda,
    fit_qda,
    misclassification_rate,
    predict_lda,
    predict_qda,
)
from .chernoff import (
    lol_vs_lda_gap,
    lol_vs_pca_gap,
    projected_chernoff_quadform,
)
from .simulations import (
    RegressionSample,
    SimSample,
    SimSpec,
    population_model,
    sample,
)
from .benchmark import (
    ALGORITHMS,
    ErrorCurve,
    FoldPlan,
    fit_projection,
    load_csv,
    make_fold_plan,
    normalized_report,
    select_rstar,
    sweep,
)
from .extensions import (
    HotellingResult,
    hotelling_two_sample,
    lol_regression,
    mean_squared_error,
    projected_test_power,
    quantile_partition,
)

__version__ = "0.1.0"
