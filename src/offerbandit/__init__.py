"""Category-level contextual bandit engine for retail offer selection."""

from .bandit import (
    CategoryModel,
    LearnerConfig,
    ModelStore,
    aggregate_offer,
    backfit,
    predict_category,
    sgd_update,
    sigmoid,
)
from .baselines import (
    CambPolicy,
    EpsilonGreedyPolicy,
    LinUCBPolicy,
    OfferCandidate,
    RandomPolicy,
    ThompsonPolicy,
    make_policy,
)
from .config import RunConfig
from .data import Impression, MFScoreTable, Offer, TransactionLog
from .errors import ConfigError
from .exploration import ExplorationConfig, kappa_at, sample_score
from .features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    N_FEATURES,
    RunningScaler,
    build_context,
)
from .harness import (
    ReplayDataset,
    SyntheticWorld,
    SyntheticWorldConfig,
    compute_metrics,
    run_replay,
    run_synthetic,
)
from .interpret import (
    ChangeEvent,
    DetectionConfig,
    ExplanationPayload,
    MockLLMClient,
    TrajectoryStore,
    build_payload,
    detect_changes,
)

__version__ = "0.1.0"
